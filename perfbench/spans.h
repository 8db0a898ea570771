/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * The benchmark times each call it makes into a dacsim module's public
 * functions. A span holds the call's name ("<layer>.<call>"), its start
 * and end on the monotonic clock, the span that was open on the same
 * thread when it began (its parent), and the point or job id it
 * belongs to. Spans stay in memory while the pass runs and are written
 * once at exit as Chrome trace_event JSON together with a self-time
 * rollup. A disabled recorder makes every Scoped a no-op, so the
 * untraced passes share the same call sites.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds on CLOCK_MONOTONIC, the clock run.py's time.monotonic()
 * reads, so timestamps compare across the two processes. */
double monoNow();

struct Span
{
    std::string name;
    double t0 = 0;
    double t1 = 0;
    int parent = -1;
    int tid = 0;
    long long id = -1;
    std::string detail;
};

/** Self and total time of every span that shares one name. */
struct Rollup
{
    double selfS = 0;
    double totalS = 0;
    long count = 0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span on the calling thread; returns its index (-1 when
     * disabled). Its parent is the innermost span open on this thread. */
    int begin(const std::string &name, long long id,
              const std::string &detail = "");
    /** Close span @p idx (which must be the innermost open one). */
    void end(int idx);
    void setDetail(int idx, const std::string &detail);

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span: opened by the constructor, closed by the destructor. */
class Scoped
{
  public:
    Scoped(SpanRecorder &rec, const std::string &name, long long id = -1,
           const std::string &detail = "")
        : rec_(rec), idx_(rec.begin(name, id, detail))
    {
    }
    ~Scoped() { rec_.end(idx_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    void setDetail(const std::string &d) { rec_.setDetail(idx_, d); }

  private:
    SpanRecorder &rec_;
    int idx_;
};

/** Per-name rollup: a span's self time is its duration minus the part
 * of it that its child spans cover. */
std::map<std::string, Rollup> rollupByName(const std::vector<Span> &spans);

/** Seconds of [t0, t1] covered by at least one root span. */
double coveredSeconds(const std::vector<Span> &spans, double t0, double t1);

/** Write @p spans as Chrome trace_event JSON (timestamps relative to
 * @p origin), with @p rollup under "otherData". False on I/O error. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::map<std::string, Rollup> &rollup,
                      double origin);

/** @p s as a JSON string literal, quotes included. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
