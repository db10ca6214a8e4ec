/**
 * @file
 * A sampling profiler that is preloaded into the process it measures:
 *
 *     LD_PRELOAD=build/tools/libcobra_prof.so ./build/tools/cobra_search ...
 *
 * A SIGPROF interval timer asks for a signal every millisecond of the
 * process's CPU time (all threads together); the kernel checks it once
 * per scheduler tick, so samples come at most once per tick (4 ms on a
 * 250 Hz kernel). The handler records the program counter it
 * interrupted. At exit the samples, counted per address, are written
 * with the process's executable mappings to cobra-prof.<pid>.txt in
 * the working directory, and tools/profile/symbolize.py turns that
 * into self-time shares per function. Unlike a gprof (-pg) build,
 * nothing is instrumented, so small hot functions are not charged for
 * the counting itself.
 *
 * A program that does not restart a poll() or sleep interrupted by
 * the signal (EINTR) sees it return early.
 */

#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

/** Room for about 70 CPU-minutes at one sample per millisecond;
 *  pages are touched only as samples arrive. */
constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
constexpr long kPeriodUs = 1000;

std::uintptr_t* g_samples = nullptr;
std::atomic<std::size_t> g_taken{0};

void
onProf(int, siginfo_t*, void* context)
{
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;
    const std::uintptr_t pc = 0;
#endif
    const std::size_t i = g_taken.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples)
        g_samples[i] = pc;
}

__attribute__((constructor)) void
startSampling()
{
    void* mem = mmap(nullptr, kMaxSamples * sizeof(std::uintptr_t),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        return;
    g_samples = static_cast<std::uintptr_t*>(mem);

    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval timer;
    std::memset(&timer, 0, sizeof timer);
    timer.it_interval.tv_usec = kPeriodUs;
    timer.it_value.tv_usec = kPeriodUs;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void
writeProfile()
{
    if (g_samples == nullptr)
        return;
    itimerval off;
    std::memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);

    const std::size_t taken = g_taken.load();
    const std::size_t n = std::min(taken, kMaxSamples);
    std::sort(g_samples, g_samples + n);

    char path[64];
    std::snprintf(path, sizeof path, "cobra-prof.%d.txt",
                  static_cast<int>(getpid()));
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr)
        return;
    std::fprintf(out,
                 "# cobra-prof requested_period_us %ld samples %zu "
                 "dropped %zu\n",
                 kPeriodUs, n, taken - n);
    // Executable mappings, as /proc/self/maps prints them.
    if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps) != nullptr) {
            // "start-end rwxp ...": the third permission letter.
            const char* blank = std::strchr(line, ' ');
            if (blank != nullptr && blank[3] == 'x')
                std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i;
        while (j < n && g_samples[j] == g_samples[i])
            ++j;
        std::fprintf(out, "%zx %zu\n", static_cast<std::size_t>(g_samples[i]),
                     j - i);
        i = j;
    }
    std::fclose(out);
}

} // namespace
