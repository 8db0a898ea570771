#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench
{

namespace
{

std::atomic<int> nextTid{1};
thread_local int threadId = 0;
thread_local std::vector<int> openSpans;

using Interval = std::pair<double, double>;

/** Length of the union of @p iv clipped to [lo, hi]. */
double
unionLength(std::vector<Interval> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double sum = 0;
    double curLo = 0, curHi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= curHi) {
            curHi = std::max(curHi, b);
            continue;
        }
        if (open)
            sum += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
    }
    if (open)
        sum += curHi - curLo;
    return sum;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

double
monoNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

int
SpanRecorder::begin(const std::string &name, long long id,
                    const std::string &detail)
{
    if (!enabled_)
        return -1;
    if (threadId == 0)
        threadId = nextTid.fetch_add(1);
    Span s;
    s.name = name;
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.tid = threadId;
    s.id = id;
    s.detail = detail;
    int idx;
    {
        std::lock_guard<std::mutex> g(mu_);
        idx = static_cast<int>(spans_.size());
        spans_.push_back(std::move(s));
    }
    openSpans.push_back(idx);
    // Read the clock last, so the bookkeeping above is not charged to
    // the call being timed.
    const double t0 = monoNow();
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<std::size_t>(idx)].t0 = t0;
    return idx;
}

void
SpanRecorder::end(int idx)
{
    if (idx < 0)
        return;
    const double t1 = monoNow();
    if (!openSpans.empty() && openSpans.back() == idx)
        openSpans.pop_back();
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<std::size_t>(idx)].t1 = t1;
}

void
SpanRecorder::setDetail(int idx, const std::string &detail)
{
    if (idx < 0)
        return;
    std::lock_guard<std::mutex> g(mu_);
    spans_[static_cast<std::size_t>(idx)].detail = detail;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_;
}

std::map<std::string, Rollup>
rollupByName(const std::vector<Span> &spans)
{
    std::vector<std::vector<Interval>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.t0, s.t1});
    std::map<std::string, Rollup> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double total = s.t1 - s.t0;
        Rollup &r = out[s.name];
        r.totalS += total;
        r.selfS += total - unionLength(kids[i], s.t0, s.t1);
        ++r.count;
    }
    return out;
}

double
coveredSeconds(const std::vector<Span> &spans, double t0, double t1)
{
    std::vector<Interval> roots;
    for (const Span &s : spans)
        if (s.parent < 0)
            roots.push_back({s.t0, s.t1});
    return unionLength(std::move(roots), t0, t1);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::map<std::string, Rollup> &rollup, double origin)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(
            f,
            "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
            "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"id\": "
            "%lld, \"parent\": %d, \"detail\": %s}}",
            i == 0 ? "" : ",\n", jsonString(s.name).c_str(),
            jsonString(layerOf(s.name)).c_str(), (s.t0 - origin) * 1e6,
            (s.t1 - s.t0) * 1e6, s.tid, s.id, s.parent,
            jsonString(s.detail).c_str());
    }
    std::fprintf(f, "\n], \"otherData\": {\"self_time_rollup\": {");
    bool first = true;
    for (const auto &[name, r] : rollup) {
        std::fprintf(f,
                     "%s\n  %s: {\"self_s\": %.9f, \"total_s\": %.9f, "
                     "\"count\": %ld}",
                     first ? "" : ",", jsonString(name).c_str(), r.selfS,
                     r.totalS, r.count);
        first = false;
    }
    std::fprintf(f, "\n}}}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
