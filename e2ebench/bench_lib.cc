#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "util/histogram.h"
#include "util/random.h"
#include "util/zipf.h"

namespace e2ebench {

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  tardis::Random r(a * 0x100000001B3ull ^ (b + 0x632BE59BD9B4E019ull) * 31 ^ c);
  r.Next();
  return r.Next() ^ (c * 0x9E3779B97F4A7C15ull);
}

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kGet:
      return "get";
    case Verb::kPut:
      return "put";
    case Verb::kMput:
      return "mput";
    case Verb::kMarker:
      return "marker";
    case Verb::kSample:
      return "sample";
  }
  return "?";
}

std::vector<std::vector<Op>> BuildSchedule(const MixSpec& spec, uint64_t seed,
                                           uint64_t stream, double rate,
                                           double seconds, int conns) {
  std::vector<std::vector<Op>> out(static_cast<size_t>(conns));
  const double per_conn = rate / conns;
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  for (int c = 0; c < conns; c++) {
    std::vector<Op>& ops = out[static_cast<size_t>(c)];
    tardis::Random rng(MixSeed(seed, stream, static_cast<uint64_t>(c)));
    std::unique_ptr<tardis::ScrambledZipfianGenerator> zipf;
    if (spec.theta > 0) {
      zipf = std::make_unique<tardis::ScrambledZipfianGenerator>(
          spec.keys, spec.theta, MixSeed(seed, stream, 1000 + c));
    }
    auto key = [&]() -> uint32_t {
      return static_cast<uint32_t>(zipf ? zipf->Next() : rng.Uniform(spec.keys));
    };
    uint64_t idx = 0;
    auto next_id = [&] {
      return (stream << 40) | (static_cast<uint64_t>(c) << 32) | idx++;
    };
    double t = 0;
    while (per_conn > 0) {
      t += -std::log(1.0 - rng.NextDouble()) / per_conn;
      const int64_t at = static_cast<int64_t>(t * 1e9);
      if (at >= end_ns) break;
      Op op;
      op.at_ns = at;
      const double u = rng.NextDouble();
      if (u < spec.get_share) {
        op.verb = Verb::kGet;
        op.keys[0] = key();
      } else if (u < spec.get_share + spec.mput_share) {
        op.verb = Verb::kMput;
        // Three distinct keys, uniform: most land on both partitions.
        op.keys[0] = static_cast<uint32_t>(rng.Uniform(spec.keys));
        do {
          op.keys[1] = static_cast<uint32_t>(rng.Uniform(spec.keys));
        } while (op.keys[1] == op.keys[0]);
        do {
          op.keys[2] = static_cast<uint32_t>(rng.Uniform(spec.keys));
        } while (op.keys[2] == op.keys[0] || op.keys[2] == op.keys[1]);
      } else {
        op.verb = Verb::kPut;
        op.keys[0] = key();
      }
      op.value_id = next_id();
      ops.push_back(op);
    }
    if (c == 0 && spec.marker_rate > 0) {
      const double gap = 1.0 / spec.marker_rate;
      uint32_t m = 0;
      for (double mt = gap / 2; mt * 1e9 < end_ns; mt += gap) {
        Op op;
        op.at_ns = static_cast<int64_t>(mt * 1e9);
        op.verb = Verb::kMarker;
        op.keys[0] = m++;
        op.value_id = next_id();
        ops.push_back(op);
      }
    }
    if (spec.sample_every_s > 0) {
      for (double st = spec.sample_every_s; st * 1e9 < end_ns;
           st += spec.sample_every_s) {
        Op op;
        op.at_ns = static_cast<int64_t>(st * 1e9);
        op.verb = Verb::kSample;
        ops.push_back(op);
      }
    }
    std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      return a.at_ns < b.at_ns;
    });
  }
  return out;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > v->size()) rank = v->size();
  return (*v)[rank - 1];
}

double WindowedQuantile(const std::vector<TimedSample>& samples, double span,
                        int windows, double q, int* used) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  const int k = std::max(1, std::min(windows, static_cast<int>(beyond / 10)));
  if (used != nullptr) *used = k;
  std::vector<std::vector<double>> parts(static_cast<size_t>(k));
  for (const TimedSample& s : samples) {
    int w = span > 0 ? static_cast<int>(s.t / span * k) : 0;
    w = std::clamp(w, 0, k - 1);
    parts[static_cast<size_t>(w)].push_back(s.value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& p : parts) {
    if (!p.empty()) per_window.push_back(Percentile(&p, q));
  }
  return Percentile(&per_window, 0.5);
}

std::vector<double> WindowSteal(const std::vector<HostSample>& readings,
                                double span, int windows) {
  std::vector<double> out(static_cast<size_t>(std::max(windows, 0)), 0.0);
  if (readings.empty()) return out;
  for (size_t i = 0; i < out.size(); i++) {
    const double start = span * static_cast<double>(i) / windows;
    const double end = span * static_cast<double>(i + 1) / windows;
    size_t lo = 0, hi = readings.size() - 1;
    for (size_t k = 0; k < readings.size(); k++) {
      if (readings[k].t <= start) lo = k;
    }
    for (size_t k = readings.size(); k-- > 0;) {
      if (readings[k].t >= end) hi = k;
    }
    const double ticks = readings[hi].total - readings[lo].total;
    if (ticks > 0) out[i] = (readings[hi].steal - readings[lo].steal) / ticks;
  }
  return out;
}

double CalmQuantile(const std::vector<TimedSample>& samples, double span,
                    const std::vector<double>& steal, int keep, double q) {
  const int k = static_cast<int>(steal.size());
  if (k == 0) return 0;
  std::vector<std::vector<double>> parts(static_cast<size_t>(k));
  for (const TimedSample& s : samples) {
    const int w = std::clamp(span > 0 ? static_cast<int>(s.t / span * k) : 0,
                             0, k - 1);
    parts[static_cast<size_t>(w)].push_back(s.value);
  }
  std::vector<size_t> order(static_cast<size_t>(k));
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<double> per_window;
  for (size_t i : order) {
    if (static_cast<int>(per_window.size()) >= keep) break;
    if (!parts[i].empty()) per_window.push_back(Percentile(&parts[i], q));
  }
  return Percentile(&per_window, 0.5);
}

bool TailSupported(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double HighestSupportedTail(size_t n) {
  double best = 0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (TailSupported(n, q)) best = q;
  }
  return best;
}

// ---- Prometheus ------------------------------------------------------------

namespace {

bool ParseLabels(const std::string& body, Labels* out) {
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t eq = body.find('=', pos);
    if (eq == std::string::npos || eq + 1 >= body.size() ||
        body[eq + 1] != '"') {
      return false;
    }
    const size_t close = body.find('"', eq + 2);
    if (close == std::string::npos) return false;
    (*out)[body.substr(pos, eq - pos)] = body.substr(eq + 2, close - eq - 2);
    pos = close + 1;
    if (pos < body.size() && body[pos] == ',') pos++;
  }
  return true;
}

bool Matches(const Series& s, const std::string& name, const Labels& match) {
  if (s.name != name) return false;
  for (const auto& [k, v] : match) {
    auto it = s.labels.find(k);
    if (it == s.labels.end() || it->second != v) return false;
  }
  return true;
}

double ParseLe(const std::string& le) {
  if (le == "+Inf") return std::numeric_limits<double>::infinity();
  return strtod(le.c_str(), nullptr);
}

/// The registry bucket limit just below `le` (0 below the first one).
double LowerEdge(double le) {
  double lower = 0;
  for (int i = 0; i < tardis::Histogram::bucket_count(); i++) {
    const double limit = static_cast<double>(tardis::Histogram::BucketLimit(i));
    if (i + 1 == tardis::Histogram::bucket_count() || limit >= le) break;
    lower = limit;
  }
  return lower;
}

}  // namespace

Scrape ParseProm(const std::string& text) {
  Scrape out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line[0] == '*') {
      const size_t sp = line.find(' ');
      line = sp == std::string::npos ? "" : line.substr(sp + 1);
    }
    if (line.empty() || line[0] == '#' || line == "END") continue;
    const size_t sep = line.rfind(' ');
    if (sep == std::string::npos) continue;
    const std::string key = line.substr(0, sep);
    const std::string value = line.substr(sep + 1);
    char* endp = nullptr;
    Series s;
    s.value = strtod(value.c_str(), &endp);
    if (endp == value.c_str()) continue;
    const size_t brace = key.find('{');
    if (brace == std::string::npos) {
      s.name = key;
    } else {
      if (key.back() != '}') continue;
      s.name = key.substr(0, brace);
      if (!ParseLabels(key.substr(brace + 1, key.size() - brace - 2),
                       &s.labels)) {
        continue;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

double SumSeries(const Scrape& s, const std::string& name,
                 const Labels& match) {
  double sum = 0;
  for (const Series& x : s) {
    if (Matches(x, name, match)) sum += x.value;
  }
  return sum;
}

double DeltaSeries(const Scrape& before, const Scrape& after,
                   const std::string& name, const Labels& match) {
  return SumSeries(after, name, match) - SumSeries(before, name, match);
}

double MaxSeries(const Scrape& s, const std::string& name,
                 const Labels& match) {
  double best = 0;
  for (const Series& x : s) {
    if (Matches(x, name, match)) best = std::max(best, x.value);
  }
  return best;
}

bool BucketCounts(const Scrape& s, const std::string& name,
                  const Labels& match, std::map<double, double>* out) {
  // Group cumulative points by series (labels minus `le`).
  std::map<Labels, std::map<double, double>> cumulative;
  const std::string bucket = name + "_bucket";
  for (const Series& x : s) {
    if (!Matches(x, bucket, match)) continue;
    auto le = x.labels.find("le");
    if (le == x.labels.end()) continue;
    Labels id = x.labels;
    id.erase("le");
    cumulative[id][ParseLe(le->second)] += x.value;
  }
  out->clear();
  for (const auto& [id, points] : cumulative) {
    double prev = 0;
    for (const auto& [le, cum] : points) {
      if (cum < prev) return false;
      if (cum > prev) (*out)[le] += cum - prev;
      prev = cum;
    }
  }
  return true;
}

bool DeltaHistogram(const Scrape& before, const Scrape& after,
                    const std::string& name, const Labels& match,
                    HistDelta* out) {
  std::map<double, double> b, a;
  if (!BucketCounts(before, name, match, &b) ||
      !BucketCounts(after, name, match, &a)) {
    return false;
  }
  out->buckets.clear();
  out->count = 0;
  for (const auto& [le, n] : a) {
    auto it = b.find(le);
    const double d = n - (it == b.end() ? 0 : it->second);
    if (d < 0) return false;
    if (d > 0) {
      out->buckets[le] = d;
      out->count += d;
    }
  }
  for (const auto& [le, n] : b) {
    if (n > 0 && a.find(le) == a.end()) return false;
  }
  return true;
}

double HistDelta::Quantile(double q) const {
  if (count <= 0) return 0;
  const double rank = q * count;
  double seen = 0;
  for (const auto& [le, n] : buckets) {
    const double lower = LowerEdge(le);
    if (seen + n >= rank) {
      if (std::isinf(le)) return lower;
      const double frac = n > 0 ? (rank - seen) / n : 1;
      return lower + (le - lower) * std::clamp(frac, 0.0, 1.0);
    }
    seen += n;
  }
  const double last = buckets.rbegin()->first;
  return std::isinf(last) ? LowerEdge(last) : last;
}

// ---- ladder ----------------------------------------------------------------

std::vector<double> LadderRates(double base, double factor, int steps) {
  std::vector<double> out;
  double r = base;
  for (int i = 0; i < steps; i++, r *= factor) out.push_back(std::round(r));
  return out;
}

bool StepPasses(const StepResult& r, double limit_ms) {
  if (r.p99_ms.empty()) return false;
  for (const auto& [verb, p99] : r.p99_ms) {
    auto n = r.count.find(verb);
    if (n == r.count.end() || !TailSupported(n->second, 0.99)) return false;
    if (p99 > limit_ms) return false;
  }
  return r.late_second_half_ms <= limit_ms && r.error_share <= 0.001;
}

int LadderSearch(int steps, const std::function<bool(int)>& probe) {
  int lo = -1;     // highest index known to pass
  int hi = steps;  // lowest index known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---- replies ---------------------------------------------------------------

namespace {

bool AllDigits(const std::string& s, size_t from, size_t to) {
  if (from >= to || to > s.size()) return false;
  for (size_t i = from; i < to; i++) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// "OK" or "OK STATE <site>:<seq>".
bool IsPutOk(const std::string& r) {
  if (r == "OK") return true;
  if (r.compare(0, 9, "OK STATE ") != 0) return false;
  const size_t colon = r.find(':', 9);
  return colon != std::string::npos && AllDigits(r, 9, colon) &&
         AllDigits(r, colon + 1, r.size());
}

}  // namespace

ReplyKind ClassifyReply(const std::string& verb, const std::string& reply) {
  if (reply.compare(0, 4, "ERR ") == 0) return ReplyKind::kError;
  bool ok = false;
  if (verb == "put") {
    ok = IsPutOk(reply);
  } else if (verb == "get") {
    ok = reply == "NOTFOUND" || (reply.compare(0, 6, "VALUE ") == 0 &&
                                 reply.size() > 6);
  } else if (verb == "mput") {
    if (IsPutOk(reply)) {
      ok = true;
    } else if (reply.compare(0, 7, "OK TXN ") == 0) {
      // "OK TXN <id>[ FORKED][ INDOUBT <n>]"
      size_t end = reply.find(' ', 7);
      if (end == std::string::npos) end = reply.size();
      ok = AllDigits(reply, 7, end);
      std::string rest = reply.substr(end);
      if (rest.compare(0, 7, " FORKED") == 0) rest.erase(0, 7);
      if (!rest.empty()) {
        ok = ok && rest.compare(0, 9, " INDOUBT ") == 0 &&
             AllDigits(rest, 9, rest.size());
      }
    }
  } else if (verb == "merge") {
    ok = reply == "NOMERGE" ||
         (reply.compare(0, 7, "MERGED ") == 0 &&
          AllDigits(reply, 7, reply.size()));
  }
  return ok ? ReplyKind::kOk : ReplyKind::kMalformed;
}

double ErrorShareUpper(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) return 1;
  const double z = 1.6448536269514722;  // one-sided 95%
  const double n = static_cast<double>(attempted);
  const double p = static_cast<double>(failed) / n;
  const double z2 = z * z;
  const double center = p + z2 / (2 * n);
  const double margin = z * std::sqrt(p * (1 - p) / n + z2 / (4 * n * n));
  return std::min(1.0, (center + margin) / (1 + z2 / n));
}

// ---- result ----------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

std::string MakeValue(uint64_t value_id, size_t bytes) {
  static const char kAlnum[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  char head[32];
  snprintf(head, sizeof(head), "v%llx.", static_cast<unsigned long long>(value_id));
  std::string out = head;
  tardis::Random rng(value_id);
  while (out.size() < bytes) out.push_back(kAlnum[rng.Uniform(62)]);
  out.resize(std::max(bytes, std::string(head).size()));
  return out;
}

}  // namespace e2ebench
