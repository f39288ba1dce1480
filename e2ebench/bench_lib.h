// Pure building blocks of the end-to-end load driver (loadgen.cc): the
// seeded request schedule, percentile rules, the Prometheus scrape
// parser with bucket deltas, the capacity ladder search, reply grammar
// checks and the result JSON. Nothing here touches sockets or processes,
// so bench_lib_test.cc covers it directly.

#ifndef TARDIS_E2EBENCH_BENCH_LIB_H_
#define TARDIS_E2EBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Mixes several words into one seed (schedule streams, value ids).
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

enum class Verb : uint8_t { kGet, kPut, kMput, kMarker, kSample };
const char* VerbName(Verb v);

/// One scheduled request. `at_ns` is the send time relative to the start
/// of its phase; the value written is derived from `value_id`.
struct Op {
  int64_t at_ns = 0;
  Verb verb = Verb::kGet;
  uint32_t keys[3] = {0, 0, 0};
  uint64_t value_id = 0;
};

/// Traffic shape of the load connections of one workload.
struct MixSpec {
  uint64_t keys = 1;         ///< key space [0, keys)
  double theta = 0;          ///< Zipfian skew; 0 = uniform
  double get_share = 0.5;    ///< the rest of the mix is put and mput
  double mput_share = 0;
  double marker_rate = 0;    ///< marker puts per second on connection 0
  double sample_every_s = 0; ///< health samples on every connection
};

/// Open-loop schedule: Poisson arrivals at rate/conns per connection for
/// `seconds`, plus evenly spaced markers and samples. Identical for the
/// same (spec, seed, stream, rate, seconds, conns).
std::vector<std::vector<Op>> BuildSchedule(const MixSpec& spec, uint64_t seed,
                                           uint64_t stream, double rate,
                                           double seconds, int conns);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample. Sorts *v.
double Percentile(std::vector<double>* v, double q);

/// A timed sample: when it was scheduled (s into its window) and its value.
struct TimedSample {
  double t = 0;
  double value = 0;
};

/// The median, over equal sub-windows of [0, span), of each sub-window's
/// q-quantile. The sub-window count is at most `windows` and small enough
/// that each holds about ten samples beyond q; with too few samples for
/// two sub-windows it is the whole-sample quantile. A host stall inside
/// one sub-window then moves the result by one rank, not by its own size.
/// *used (optional) receives the sub-window count.
double WindowedQuantile(const std::vector<TimedSample>& samples, double span,
                        int windows, double q, int* used = nullptr);

/// A reading of the host's CPU tick counters (all states, and steal: time
/// this VM's CPUs were runnable while the host ran something else), taken
/// t seconds into a window.
struct HostSample {
  double t = 0;
  double total = 0;
  double steal = 0;
};

/// The host CPU steal share of each of `windows` equal sub-windows of
/// [0, span), from the readings (sorted by t) that bracket it: the last one
/// at or before its start and the first one at or after its end. 0 where
/// the readings show no ticks.
std::vector<double> WindowSteal(const std::vector<HostSample>& readings,
                                double span, int windows);

/// The median, over the `keep` sub-windows with the least steal
/// (`steal[i]` for the i-th equal sub-window of [0, span); ties keep time
/// order; empty sub-windows are passed over), of each one's q-quantile.
/// Latency follows host steal second by second, so this is the figure
/// least disturbed by other tenants.
double CalmQuantile(const std::vector<TimedSample>& samples, double span,
                    const std::vector<double>& steal, int keep, double q);

/// A tail percentile q is reported only when at least ten samples lie
/// beyond it: n * (1 - q) >= 10.
bool TailSupported(size_t n, double q);
/// The highest of p50, p90, p99, p99.9 and p99.99 that n samples support
/// (0 when not even p50 is).
double HighestSupportedTail(size_t n);

// ---- Prometheus text scraped from `metrics` / `metrics cluster` ----------

using Labels = std::map<std::string, std::string>;

struct Series {
  std::string name;
  Labels labels;
  double value = 0;
};
using Scrape = std::vector<Series>;

/// Parses exposition text; comment lines, an END marker and a leading
/// `*F` floor token are skipped, malformed lines ignored.
Scrape ParseProm(const std::string& text);

/// Sum of the series named `name` whose labels include all of `match`.
double SumSeries(const Scrape& s, const std::string& name,
                 const Labels& match = {});
double DeltaSeries(const Scrape& before, const Scrape& after,
                   const std::string& name, const Labels& match = {});
/// Largest value among the matching series (gauges); 0 when none.
double MaxSeries(const Scrape& s, const std::string& name,
                 const Labels& match = {});

/// Per-bucket sample counts of a histogram family over one window.
struct HistDelta {
  std::map<double, double> buckets;  ///< upper limit (+inf last) -> count
  double count = 0;
  /// Linear interpolation inside the bucket that holds rank q*count; the
  /// lower edge is the registry's previous bucket limit. 0 when empty.
  double Quantile(double q) const;
};

/// Bucket counts of `name`_bucket over the matching series, summed across
/// series. Returns false when a series' cumulative counts decrease, which
/// is what summing sparse bucket series from several processes produces.
bool BucketCounts(const Scrape& s, const std::string& name,
                  const Labels& match, std::map<double, double>* out);
/// after - before, bucket by bucket. False on a non-cumulative series or
/// a bucket that went backwards (counter reset).
bool DeltaHistogram(const Scrape& before, const Scrape& after,
                    const std::string& name, const Labels& match,
                    HistDelta* out);

// ---- capacity ladder -----------------------------------------------------

/// Offered rates base * factor^i, i in [0, steps).
std::vector<double> LadderRates(double base, double factor, int steps);

/// What one ladder step measured.
struct StepResult {
  double rate = 0;
  std::map<std::string, double> p99_ms;  ///< per verb
  std::map<std::string, size_t> count;   ///< per verb, samples
  double late_second_half_ms = 0;        ///< mean generator lateness
  double error_share = 0;
};

/// A step passes when every verb's p99 is within the limit (and has the
/// samples to support it), the generator kept up in the step's second
/// half (the backlog did not grow), and at most 0.1% of requests failed.
bool StepPasses(const StepResult& r, double limit_ms);

/// Bisects the ladder for its highest passing step, assuming steps pass
/// up to some index and fail beyond it. Returns that index, or -1 when
/// the lowest step fails. `probe` runs one step.
int LadderSearch(int steps, const std::function<bool(int)>& probe);

// ---- reply grammar -------------------------------------------------------

enum class ReplyKind { kOk, kError, kMalformed };

/// Classifies a reply of `verb` ("put", "get", "mput", "merge"): kError
/// for an "ERR ..." reply, kMalformed for anything outside the grammar.
ReplyKind ClassifyReply(const std::string& verb, const std::string& reply);

/// One-sided 95% Wilson upper bound of failed/attempted: never 0, so a
/// run without failures still gives a comparable, positive figure.
double ErrorShareUpper(uint64_t failed, uint64_t attempted);

// ---- result --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Deterministic alphanumeric value of exactly `bytes` characters whose
/// prefix names `value_id`.
std::string MakeValue(uint64_t value_id, size_t bytes);

}  // namespace e2ebench

#endif  // TARDIS_E2EBENCH_BENCH_LIB_H_
