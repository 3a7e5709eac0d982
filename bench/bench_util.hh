/**
 * @file
 * What paper_figures and fig_fidelity_error share.
 */

#ifndef DAPSIM_BENCH_BENCH_UTIL_HH
#define DAPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

namespace dapsim::bench
{

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("==============================================================\n");
}

} // namespace dapsim::bench

#endif // DAPSIM_BENCH_BENCH_UTIL_HH
