/**
 * @file
 * Machine-checked shape fidelity.
 *
 * EXPERIMENTS.md records the paper-vs-measured verdict tables as
 * prose; this module encodes every ✔ row as an executable assertion
 * over named measurements, so `bench/repro_all` (and CI) fail loudly
 * when a change breaks the reproduction's *shape* — who wins, in what
 * order, by roughly what factor — instead of silently drifting.
 *
 * Check kinds mirror how the verdicts are phrased:
 *  - Less / Greater: a direction claim ("HardHarvest-Block lands
 *    below NoHarvest"), against another measurement or a constant.
 *  - Ordering: a non-decreasing chain ("LRU <= RRIP <= HardHarvest <=
 *    Belady").
 *  - Band: a factor bracket ("Harvest-Term P99 is ~3-4x NoHarvest").
 *
 * Directions and orderings are scale-robust and run at every scale
 * (CI's `repro-smoke` quick runs included); bands assume the
 * committed full scale and only run under `--gate full` (nightly).
 * A check whose measurements are absent evaluates to Skipped, never
 * Fail — the catalogue names rows from figures a given invocation did
 * not run.
 */

#ifndef HH_EXP_FIDELITY_H
#define HH_EXP_FIDELITY_H

#include <map>
#include <string>
#include <vector>

namespace hh::exp {

/** Named scalar measurements filled by the figure harnesses. */
class MeasurementSet
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    bool has(const std::string &name) const
    {
        return values_.count(name) != 0;
    }

    /** Value of @p name; fatal when absent (callers check has()). */
    double get(const std::string &name) const;

    const std::map<std::string, double> &all() const
    {
        return values_;
    }

  private:
    std::map<std::string, double> values_;
};

struct FidelityCheck
{
    enum class Kind
    {
        Less,     //!< terms[0] < terms[1] (or < constant).
        Greater,  //!< terms[0] > terms[1] (or > constant).
        Ordering, //!< terms non-decreasing left to right.
        Band,     //!< lo <= terms[0] <= hi (full scale only).
    };

    std::string id;       //!< e.g. "fig11.hhb_below_noharvest".
    std::string paperRow; //!< The EXPERIMENTS.md row this encodes.
    Kind kind = Kind::Less;
    std::vector<std::string> terms; //!< Measurement names.
    /** Comparison constant for 1-term Less/Greater. */
    double constant = 0;
    /** Band bounds (Kind::Band). */
    double lo = 0;
    double hi = 0;
    /**
     * Skip below GateLevel::Full even for direction kinds — for
     * claims that hold at the committed scale but are noise-sensitive
     * at quick scale (e.g. the Fig 11 Block > Term split). Band
     * checks are implicitly full-only.
     */
    bool fullOnly = false;
};

/** Outcome of one evaluated check. */
struct FidelityOutcome
{
    enum class Status
    {
        Pass,
        Fail,
        Skipped, //!< Measurement absent, or band check at quick scale.
    };

    std::string id;
    std::string paperRow;
    Status status = Status::Skipped;
    std::string detail; //!< Human-readable values / reason.
};

/** Gate strictness. */
enum class GateLevel
{
    Direction, //!< Directions and orderings only (quick scale).
    Full,      //!< Bands too (committed full scale).
};

/**
 * Evaluate @p checks against @p m. Band checks are Skipped below
 * GateLevel::Full; any check referencing an absent measurement is
 * Skipped with the missing name in the detail.
 */
std::vector<FidelityOutcome>
evaluateFidelity(const std::vector<FidelityCheck> &checks,
                 const MeasurementSet &m, GateLevel level);

/** True when no outcome failed. */
bool fidelityPassed(const std::vector<FidelityOutcome> &outcomes);

/**
 * The EXPERIMENTS.md catalogue: every ✔ row of the headline and
 * mechanism verdict tables as a check. Rows from figures repro_all
 * prints but does not measure (fig12/15/16/18/19, §6.3, §6.8) are
 * still present — they skip until a harness fills their
 * measurements.
 */
std::vector<FidelityCheck> paperFidelityCatalogue();

} // namespace hh::exp

#endif // HH_EXP_FIDELITY_H
