/**
 * @file
 * Shared range-check helpers for user-facing configuration dials.
 *
 * Both the classic SyntheticParams profiles and the workload-engine
 * spec parser (src/workload/spec.cc) funnel their numeric dials through
 * these checks so an out-of-range value produces the same clear
 * fatal() everywhere instead of silently generating nonsense traffic.
 * All checks are written as !(v in range) so NaN is rejected too.
 *
 * parseCount()/parseReal() are the one number parser of every
 * command-line tool: the whole string must be the number (no sign on
 * counts, no whitespace, no suffix), counts must fit the target type
 * and reals must be finite. A failure is a fatal() naming the flag.
 */

#ifndef DAPSIM_COMMON_VALIDATE_HH
#define DAPSIM_COMMON_VALIDATE_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "common/log.hh"

namespace dapsim
{

/** Probability / fraction dial: must lie within [0, 1]. */
inline double
checkUnitInterval(const std::string &what, double v)
{
    if (!(v >= 0.0 && v <= 1.0))
        fatal(what + " must be within [0, 1], got " + std::to_string(v));
    return v;
}

/** Achievable fraction of a peak bandwidth (DAP's E): (0, 1]. */
inline double
checkEfficiency(const std::string &what, double v)
{
    if (!(v > 0.0 && v <= 1.0))
        fatal(what + " must be within (0, 1], got " + std::to_string(v));
    return v;
}

/** Strictly positive dial (skew exponents, rates). */
inline double
checkPositive(const std::string &what, double v)
{
    if (!(v > 0.0))
        fatal(what + " must be > 0, got " + std::to_string(v));
    return v;
}

/** Dial with an inclusive lower bound (e.g. runLength >= 1). */
inline double
checkAtLeast(const std::string &what, double v, double lo)
{
    if (!(v >= lo))
        fatal(what + " must be >= " + std::to_string(lo) + ", got " +
              std::to_string(v));
    return v;
}

/**
 * MPKI dial: must be in (0, 1000]. One memory access per instruction
 * is the physical ceiling (gap >= 1), so anything above 1000 silently
 * degenerates — reject it instead.
 */
inline double
checkMpki(const std::string &what, double v)
{
    if (!(v > 0.0 && v <= 1000.0))
        fatal(what + " must be within (0, 1000], got " +
              std::to_string(v));
    return v;
}

/** Integer dial with an inclusive lower bound. */
inline std::uint64_t
checkCountAtLeast(const std::string &what, std::uint64_t v,
                  std::uint64_t lo)
{
    if (v < lo)
        fatal(what + " must be >= " + std::to_string(lo) + ", got " +
              std::to_string(v));
    return v;
}

/** Parse @p s, the value of @p flag, as a decimal count of type T. */
template <typename T = std::uint64_t>
T
parseCount(const std::string &flag, const std::string &s)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    const char *last = s.data() + s.size();
    // from_chars takes no sign and no leading whitespace for unsigned
    // types, and reports values above T's range.
    const auto [ptr, ec] = std::from_chars(s.data(), last, v);
    if (ec == std::errc::result_out_of_range)
        fatal(flag + " is out of range (max " +
              std::to_string(std::numeric_limits<T>::max()) + "), got '" +
              s + "'");
    if (ec != std::errc() || ptr != last)
        fatal(flag + " expects a non-negative integer, got '" + s + "'");
    return v;
}

/** Parse @p s, the value of @p flag, as a finite decimal real. */
inline double
parseReal(const std::string &flag, const std::string &s)
{
    double v = 0.0;
    const char *last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), last, v);
    // from_chars accepts "inf" and "nan" but not a leading '+' or
    // whitespace; 1e999 comes back out of range.
    if (ec != std::errc() || ptr != last ||
        !(v >= -std::numeric_limits<double>::max() &&
          v <= std::numeric_limits<double>::max()))
        fatal(flag + " expects a finite number, got '" + s + "'");
    return v;
}

} // namespace dapsim

#endif // DAPSIM_COMMON_VALIDATE_HH
