/**
 * @file
 * Strict number parsers for config text and command-line flags: the
 * whole string must be the number, and an unsigned value must fit.
 * The experiment-spec parser, the graph-spec parser and the bench
 * flags share them.
 */

#ifndef HH_SIM_PARSE_H
#define HH_SIM_PARSE_H

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>

namespace hh::sim {

/**
 * Decimal digits only: strtoul alone would accept a sign and wrap
 * "-1" to ULONG_MAX, and a cast would wrap 2^32 to 0.
 */
inline bool
parseUnsigned(const std::string &v, unsigned *out)
{
    if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE ||
        parsed > std::numeric_limits<unsigned>::max())
        return false;
    *out = static_cast<unsigned>(parsed);
    return true;
}

/** A whole-string strtod; range checks are the caller's. */
inline bool
parseDouble(const std::string &v, double *out)
{
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        return false;
    *out = parsed;
    return true;
}

} // namespace hh::sim

#endif // HH_SIM_PARSE_H
