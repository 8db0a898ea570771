/**
 * @file
 * Pass driver of the repository benchmark (see README.md here).
 *
 * One process runs one pass of one workload and writes what it saw to
 * a JSON file: timestamps, every outcome, the daemon's counters, peak
 * resident memory and, when traced, the span rollup. run.py owns the
 * seeded schedules, repetition, statistics and the reference check,
 * so this program never reads a reference.
 *
 *   perfbench_driver paper   --schedule F --out F [--spans F] [--core C]
 *                            [--perturb-hash-cycle N] [--setup-only]
 *   perfbench_driver service --schedule F --out F --state DIR
 *                            [--spans F] [--setup-only]
 *   perfbench_driver predict --schedule F --out F
 *   perfbench_driver list
 *
 * The paper mode runs each scheduled (kernel, machine, scale) point
 * through runWorkload(). Traced, it replays runWorkload's steps through
 * the public calls instead (Workload::prepare, analyzeControlFlow,
 * decouple, the Gpu constructor, Gpu::launch, GpuMemory::checksum),
 * one span around each, so run.py can assert both paths agree.
 *
 * The service mode starts an in-process service::Daemon on a unix
 * socket and drives it closed loop: one thread per scheduled client,
 * each with its own ShardRouter, sending its jobs of a phase one after
 * another; a phase drains before the next starts.
 *
 * The predict mode calls predictKernel once per scheduled kernel.
 *
 * RunOptions always start from their defaults, never from
 * RunOptions::fromEnv, so DACSIM_* variables cannot change what is
 * measured.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/predict.h"
#include "compiler/cfg.h"
#include "compiler/decoupler.h"
#include "harness/runner.h"
#include "service/daemon.h"
#include "service/router.h"
#include "sim/gpu.h"
#include "spans.h"
#include "workloads/workload.h"

using namespace dacsim;
using perfbench::jsonString;
using perfbench::monoNow;
using perfbench::Scoped;
using perfbench::SpanRecorder;

namespace
{

struct Args
{
    std::string mode;
    std::string schedule;
    std::string out;
    std::string spans;
    std::string state;
    std::string core;
    Cycle perturbHashCycle = 0;
    bool setupOnly = false;
};

/** One scheduled (kernel, machine, scale) run. */
struct Point
{
    long long id = 0;
    std::string bench;
    Technique tech = Technique::Baseline;
    double scale = 1.0;
};

/** One scheduled service job. */
struct Job
{
    int phase = 0;
    int client = 0;
    long long id = 0;
    service::JobKind kind = service::JobKind::Run;
    std::string bench;
    Technique tech = Technique::Baseline;
    double scale = 1.0;
};

struct PointResult
{
    Point point;
    RunOutcome out;
    double t0 = 0;
    double t1 = 0;
};

struct JobRecord
{
    Job job;
    bool reached = false;
    std::string error;
    service::JobResult rs;
    double t0 = 0;
    double t1 = 0;
};

struct PredictRecord
{
    long long id = 0;
    std::string bench;
    double scale = 1.0;
    PredictReport rep;
    std::string error;
};

struct Phase
{
    int phase = 0;
    double t0 = 0;
    double t1 = 0;
};

/** Everything one pass writes out. */
struct Pass
{
    double tFirstOp = 0;
    double tEnd = 0;
    std::vector<PointResult> points;
    std::vector<JobRecord> jobs;
    std::vector<Phase> phases;
    std::vector<PredictRecord> predicts;
    std::vector<std::pair<const char *, std::uint64_t>> counters;
};

[[noreturn]] void
die(const std::string &msg)
{
    throw std::runtime_error(msg);
}

const char *
techKey(Technique t)
{
    switch (t) {
      case Technique::Baseline: return "baseline";
      case Technique::Cae: return "cae";
      case Technique::Mta: return "mta";
      case Technique::Dac: return "dac";
    }
    return "?";
}

Technique
parseTech(const std::string &s)
{
    for (Technique t : {Technique::Baseline, Technique::Cae,
                        Technique::Mta, Technique::Dac})
        if (s == techKey(t))
            return t;
    die("unknown machine '" + s + "'");
}

std::vector<std::vector<std::string>>
readLines(const std::string &path, std::size_t fields)
{
    std::ifstream in(path);
    if (!in.good())
        die("cannot read schedule " + path);
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::vector<std::string> row;
        for (std::string tok; ls >> tok;)
            row.push_back(tok);
        if (row.empty())
            continue;
        if (row.size() != fields)
            die("malformed schedule line: " + line);
        rows.push_back(std::move(row));
    }
    return rows;
}

/** Paper-mode schedule line: "<id> <bench> <machine> <scale>". */
std::vector<Point>
readPoints(const std::string &path)
{
    std::vector<Point> pts;
    for (const auto &r : readLines(path, 4))
        pts.push_back({std::stoll(r[0]), r[1], parseTech(r[2]),
                       std::stod(r[3])});
    return pts;
}

/** Service schedule line:
 * "<phase> <client> <id> <run|predict> <bench> <machine> <scale>". */
std::vector<Job>
readJobs(const std::string &path)
{
    std::vector<Job> jobs;
    for (const auto &r : readLines(path, 7)) {
        Job j;
        j.phase = std::stoi(r[0]);
        j.client = std::stoi(r[1]);
        j.id = std::stoll(r[2]);
        if (r[3] == "run")
            j.kind = service::JobKind::Run;
        else if (r[3] == "predict")
            j.kind = service::JobKind::Predict;
        else
            die("unknown job kind '" + r[3] + "'");
        j.bench = r[4];
        j.tech = parseTech(r[5]);
        j.scale = std::stod(r[6]);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

RunOptions
baseOptions(const Args &a, Technique tech, double scale)
{
    RunOptions opt; // defaults, deliberately not RunOptions::fromEnv()
    opt.tech = tech;
    opt.scale = scale;
    if (!a.core.empty() && !simCoreFromName(a.core.c_str(), &opt.gpu.simCore))
        die("unknown simulation core '" + a.core + "'");
    opt.gpu.hashPerturbCycle = a.perturbHashCycle;
    return opt;
}

/**
 * runWorkload's fault-free, checkpoint-free, obs-off steps (runOnce in
 * harness/runner.cc), each public call inside its own span. run.py
 * checks that the outcome equals runWorkload's bit for bit.
 */
RunOutcome
replayRun(const Workload &wl, const RunOptions &opt, SpanRecorder &rec,
          long long id)
{
    const std::string tk = techKey(opt.tech);
    Scoped point(rec, "harness.point", id, wl.name + "/" + tk);
    RunOutcome out;
    try {
        GpuMemory gmem;
        PreparedWorkload prep;
        {
            Scoped s(rec, "workloads.prepare", id);
            prep = wl.prepare(gmem, opt.scale);
        }
        {
            Scoped s(rec, "compiler.cfg", id);
            analyzeControlFlow(prep.kernel);
        }
        DecoupledKernel dec;
        {
            Scoped s(rec, "compiler.decouple", id);
            dec = decouple(prep.kernel, opt.dac);
        }
        GpuConfig gcfg = opt.gpu;
        gcfg.perfectMemory = opt.perfectMemory;
        std::optional<Gpu> gpu;
        {
            Scoped s(rec, "sim.construct", id);
            gpu.emplace(gcfg, opt.tech, opt.dac, opt.cae, opt.mta, gmem);
        }
        const std::size_t launches =
            prep.launchParams.empty()
                ? static_cast<std::size_t>(prep.launches)
                : prep.launchParams.size();
        const std::string launchSpan = "sim.launch." + tk;
        for (std::size_t i = 0; i < launches; ++i) {
            LaunchInfo li;
            li.grid = prep.grid;
            li.block = prep.block;
            li.params = prep.launchParams.empty() ? &prep.params
                                                  : &prep.launchParams[i];
            if (opt.tech == Technique::Dac) {
                li.kernel = &dec.nonAffine;
                li.affineKernel = &dec.affine;
            } else {
                li.kernel = &prep.kernel;
                if (opt.tech == Technique::Baseline)
                    li.coverageMarks = &dec.coveredByDac;
            }
            Scoped s(rec, launchSpan, id);
            gpu->launch(li);
        }
        out.stats = gpu->stats();
        out.anyDecoupled = dec.anyDecoupled;
        out.numDecoupledLoads = dec.numDecoupledLoads;
        out.numDecoupledStores = dec.numDecoupledStores;
        out.numDecoupledPreds = dec.numDecoupledPreds;
        for (auto [base, bytes] : prep.outputs) {
            Scoped s(rec, "mem.checksum", id);
            out.checksums.push_back(gmem.checksum(base, bytes));
        }
        out.hashChain = gpu->hashChain();
        out.lastStateHash = out.stats.stateHash;
    } catch (const std::exception &e) {
        out.error.kind = RunErrorKind::Panic;
        out.error.what = e.what();
    }
    return out;
}

PredictRecord
predictOne(long long id, const std::string &bench, double scale,
           SpanRecorder &rec)
{
    PredictRecord r;
    r.id = id;
    r.bench = bench;
    r.scale = scale;
    try {
        const RunOptions defaults;
        GpuMemory gmem;
        PreparedWorkload prep;
        {
            Scoped s(rec, "workloads.prepare", id);
            prep = findWorkload(bench).prepare(gmem, scale);
        }
        Scoped s(rec, "analysis.predict", id);
        r.rep = predictKernel(prep.kernel, predictLaunches(prep),
                              defaults.gpu, defaults.dac);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

// ----- modes ---------------------------------------------------------------

void
runPaper(const Args &a, SpanRecorder &rec, Pass *pass)
{
    const std::vector<Point> points = readPoints(a.schedule);
    std::vector<const Workload *> wls;
    for (const Point &p : points)
        wls.push_back(&findWorkload(p.bench));
    pass->tFirstOp = monoNow();
    if (a.setupOnly)
        return;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const RunOptions opt = baseOptions(a, p.tech, p.scale);
        PointResult r;
        r.point = p;
        r.t0 = monoNow();
        r.out = rec.enabled() ? replayRun(*wls[i], opt, rec, p.id)
                              : runWorkload(*wls[i], opt);
        r.t1 = monoNow();
        pass->points.push_back(std::move(r));
    }
    pass->tEnd = monoNow();
}

/** Print "<name> <compute|memory>" per kernel, in Table 2 order. */
void
listKernels()
{
    for (const Workload &w : allWorkloads())
        std::printf("%s %s\n", w.name.c_str(),
                    w.memoryIntensive ? "memory" : "compute");
}

void
runPredict(const Args &a, SpanRecorder &rec, Pass *pass)
{
    const std::vector<Point> points = readPoints(a.schedule);
    pass->tFirstOp = monoNow();
    for (const Point &p : points)
        pass->predicts.push_back(predictOne(p.id, p.bench, p.scale, rec));
    pass->tEnd = monoNow();
}

/** Send @p jobs (one client's share of one phase) one after another. */
void
clientLoop(service::ShardRouter &router, const std::vector<Job> &jobs,
           SpanRecorder &rec, std::vector<JobRecord> *out)
{
    for (const Job &j : jobs) {
        service::JobSpec spec;
        spec.id = static_cast<std::uint64_t>(j.id);
        spec.kind = j.kind;
        spec.bench = j.bench;
        spec.tech = j.tech;
        spec.setScale(j.scale);
        spec.client = "perfbench-" + std::to_string(j.client);
        JobRecord r;
        r.job = j;
        r.t0 = monoNow();
        try {
            Scoped s(rec, "service.call", j.id);
            r.reached = router.call(spec, &r.rs, &r.error);
            s.setDetail(r.reached ? service::resultSourceName(r.rs.source)
                                  : "unreached");
        } catch (const std::exception &e) {
            r.reached = false;
            r.error = e.what();
        }
        r.t1 = monoNow();
        out->push_back(std::move(r));
    }
}

/** The timed part of a service pass: the routers, then each phase. */
void
servePhases(const Args &a, const std::vector<Job> &jobs, int clients,
            const std::string &socket, service::Daemon &daemon,
            SpanRecorder &rec, Pass *pass)
{
    std::vector<std::unique_ptr<service::ShardRouter>> routers;
    for (int c = 0; c < clients; ++c)
        routers.push_back(std::make_unique<service::ShardRouter>(
            std::vector<std::string>{socket}));
    pass->tFirstOp = monoNow();
    if (a.setupOnly)
        return;
    for (int phase = 1; phase <= 3; ++phase) {
        std::vector<std::vector<Job>> share(
            static_cast<std::size_t>(clients));
        for (const Job &j : jobs)
            if (j.phase == phase)
                share[static_cast<std::size_t>(j.client)].push_back(j);
        std::vector<std::vector<JobRecord>> recs(share.size());
        Phase ph;
        ph.phase = phase;
        ph.t0 = monoNow();
        {
            std::vector<std::jthread> threads;
            for (std::size_t c = 0; c < share.size(); ++c)
                threads.emplace_back(clientLoop, std::ref(*routers[c]),
                                     std::cref(share[c]), std::ref(rec),
                                     &recs[c]);
        }
        ph.t1 = monoNow();
        pass->phases.push_back(ph);
        for (auto &rs : recs)
            for (JobRecord &r : rs)
                pass->jobs.push_back(std::move(r));
    }
    pass->tEnd = monoNow();
    const service::DaemonCounters &c = daemon.counters();
    pass->counters = {
        {"sims", c.sims.load()},
        {"cache_hits", c.cacheHits.load()},
        {"dedup", c.dedup.load()},
        {"retries", c.retries.load()},
        {"estimates", c.estimates.load()},
        {"overloaded", c.overloaded.load()},
    };
}

void
runService(const Args &a, SpanRecorder &rec, Pass *pass)
{
    const std::vector<Job> jobs = readJobs(a.schedule);
    int clients = 0;
    for (const Job &j : jobs) {
        findWorkload(j.bench);
        clients = std::max(clients, j.client + 1);
    }

    service::DaemonOptions dopt;
    dopt.socketPath = a.state + "/d.sock";
    dopt.dir = a.state + "/state"; // workers: one per hardware thread
    service::Daemon daemon(dopt);
    std::string err;
    bool started;
    {
        Scoped s(rec, "service.start");
        started = daemon.start(&err);
    }
    if (!started)
        die("daemon start: " + err);
    std::thread server([&daemon] { daemon.serve(); });
    // Whatever happens below, stop the daemon and join its serve
    // thread before leaving.
    std::exception_ptr failure;
    try {
        servePhases(a, jobs, clients, dopt.socketPath, daemon, rec, pass);
    } catch (...) {
        failure = std::current_exception();
    }
    daemon.requestStop();
    server.join();
    daemon.stop();
    if (failure)
        std::rethrow_exception(failure);
}

// ----- output ---------------------------------------------------------------

std::string
statsJson(const RunOutcome &out)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    visitStats(out.stats, [&](const char *name, const std::uint64_t &v) {
        os << (first ? "" : ", ") << '"' << name << "\": " << v;
        first = false;
    });
    os << "}";
    return os.str();
}

std::string
checksumsJson(const std::vector<std::uint64_t> &sums)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < sums.size(); ++i)
        os << (i ? ", " : "") << sums[i];
    os << "]";
    return os.str();
}

void
writePoints(std::FILE *f, const std::vector<PointResult> &pts)
{
    std::fprintf(f, "  \"points\": [");
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const PointResult &r = pts[i];
        std::fprintf(
            f,
            "%s\n    {\"id\": %lld, \"bench\": %s, \"tech\": \"%s\", "
            "\"scale\": %.17g, \"error\": \"%s\", \"what\": %s, "
            "\"t0\": %.9f, \"t1\": %.9f, \"hash_folds\": %zu, "
            "\"stats\": %s, \"checksums\": %s}",
            i ? "," : "", r.point.id, jsonString(r.point.bench).c_str(),
            techKey(r.point.tech), r.point.scale,
            runErrorKindName(r.out.error.kind),
            jsonString(r.out.error.what).c_str(), r.t0, r.t1,
            r.out.hashChain.size(), statsJson(r.out).c_str(),
            checksumsJson(r.out.checksums).c_str());
    }
    std::fprintf(f, "\n  ],\n");
}

void
writeJobs(std::FILE *f, const std::vector<JobRecord> &jobs)
{
    std::fprintf(f, "  \"jobs\": [");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobRecord &r = jobs[i];
        std::fprintf(
            f,
            "%s\n    {\"id\": %lld, \"phase\": %d, \"client\": %d, "
            "\"kind\": \"%s\", \"bench\": %s, \"tech\": \"%s\", "
            "\"scale\": %.17g, \"reached\": %s, \"error\": %s, "
            "\"status\": \"%s\", \"source\": \"%s\", \"attempts\": %d, "
            "\"t0\": %.9f, \"t1\": %.9f, \"any_decoupled\": %s, "
            "\"stats\": %s, \"checksums\": %s}",
            i ? "," : "", r.job.id, r.job.phase, r.job.client,
            service::jobKindName(r.job.kind),
            jsonString(r.job.bench).c_str(), techKey(r.job.tech),
            r.job.scale, r.reached ? "true" : "false",
            jsonString(r.reached ? r.rs.errorJson : r.error).c_str(),
            service::jobStatusName(r.rs.status),
            service::resultSourceName(r.rs.source), r.rs.attempts, r.t0,
            r.t1, r.rs.outcome.anyDecoupled ? "true" : "false",
            statsJson(r.rs.outcome).c_str(),
            checksumsJson(r.rs.outcome.checksums).c_str());
    }
    std::fprintf(f, "\n  ],\n");
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

void
writePredicts(std::FILE *f, const std::vector<PredictRecord> &preds)
{
    std::fprintf(f, "  \"predicts\": [");
    for (std::size_t i = 0; i < preds.size(); ++i) {
        const PredictRecord &r = preds[i];
        const PredictReport &p = r.rep;
        std::fprintf(
            f,
            "%s\n    {\"id\": %lld, \"bench\": %s, \"scale\": %.17g, "
            "\"error\": %s, \"report\": {\"base_bound\": %llu, "
            "\"base_capped\": %s, \"base_estimate\": %llu, "
            "\"dac_bound\": %llu, \"dac_capped\": %s, "
            "\"dac_estimate\": %llu, \"covered_insts\": %d, "
            "\"any_decoupled\": %s, \"dram_line_bound\": %llu, "
            "\"report_fnv\": %llu}}",
            i ? "," : "", r.id, jsonString(r.bench).c_str(), r.scale,
            jsonString(r.error).c_str(), p.base.boundCycles,
            p.base.capped ? "true" : "false", p.base.estimateCycles,
            p.dac.boundCycles, p.dac.capped ? "true" : "false",
            p.dac.estimateCycles, p.predictedCoveredInsts,
            p.predictedAnyDecoupled ? "true" : "false", p.dramLineBound,
            static_cast<unsigned long long>(
                r.error.empty() ? fnv1a(p.renderJson()) : 0));
    }
    std::fprintf(f, "\n  ],\n");
}

long
maxRssKb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_maxrss;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return __VERSION__;
#endif
}

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "none";
#endif
}

void
writePass(const Args &a, const Pass &pass, SpanRecorder &rec)
{
    std::FILE *f = std::fopen(a.out.c_str(), "w");
    if (f == nullptr)
        die("cannot write " + a.out);
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::fprintf(f,
                 "{\n  \"mode\": \"%s\",\n  \"build\": {\"compiler\": %s, "
                 "\"build_type\": %s, \"optimized\": %s, "
                 "\"sanitizer\": \"%s\"},\n",
                 a.mode.c_str(), jsonString(compilerName()).c_str(),
                 jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                 optimized ? "true" : "false", sanitizerName());
    std::fprintf(f,
                 "  \"t_first_op\": %.9f,\n  \"t_end\": %.9f,\n"
                 "  \"maxrss_self_kb\": %ld,\n"
                 "  \"maxrss_children_kb\": %ld,\n",
                 pass.tFirstOp, pass.tEnd,
                 maxRssKb(RUSAGE_SELF), maxRssKb(RUSAGE_CHILDREN));
    writePoints(f, pass.points);
    writeJobs(f, pass.jobs);
    writePredicts(f, pass.predicts);
    std::fprintf(f, "  \"phases\": [");
    for (std::size_t i = 0; i < pass.phases.size(); ++i)
        std::fprintf(f, "%s{\"phase\": %d, \"t0\": %.9f, \"t1\": %.9f}",
                     i ? ", " : "", pass.phases[i].phase, pass.phases[i].t0,
                     pass.phases[i].t1);
    std::fprintf(f, "],\n  \"counters\": {");
    for (std::size_t i = 0; i < pass.counters.size(); ++i)
        std::fprintf(f, "%s\"%s\": %llu", i ? ", " : "",
                     pass.counters[i].first,
                     static_cast<unsigned long long>(pass.counters[i].second));
    std::fprintf(f, "},\n");

    // Span rollup, and how much of the timed pass the root spans cover
    // (paper: the whole pass; service: the phases).
    const std::vector<perfbench::Span> spans = rec.spans();
    const auto rollup = perfbench::rollupByName(spans);
    double passS = 0, covered = 0;
    if (pass.phases.empty()) {
        passS = pass.tEnd - pass.tFirstOp;
        covered = perfbench::coveredSeconds(spans, pass.tFirstOp, pass.tEnd);
    }
    for (const Phase &ph : pass.phases) {
        passS += ph.t1 - ph.t0;
        covered += perfbench::coveredSeconds(spans, ph.t0, ph.t1);
    }
    std::fprintf(f,
                 "  \"spans\": {\"count\": %zu, \"pass_s\": %.9f, "
                 "\"covered_s\": %.9f, \"rollup\": {",
                 spans.size(), passS, covered);
    bool first = true;
    for (const auto &[name, r] : rollup) {
        std::fprintf(f,
                     "%s\n    %s: {\"self_s\": %.9f, \"total_s\": %.9f, "
                     "\"count\": %ld}",
                     first ? "" : ",", jsonString(name).c_str(), r.selfS,
                     r.totalS, r.count);
        first = false;
    }
    std::fprintf(f, "}}\n}\n");
    if (std::fclose(f) != 0)
        die("write to " + a.out + " failed");
    if (rec.enabled() &&
        !perfbench::writeChromeTrace(a.spans, spans, rollup, pass.tFirstOp))
        die("cannot write trace " + a.spans);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_driver paper|service|predict --schedule F "
            "--out F [--spans F] [--state DIR] [--core C] "
            "[--perturb-hash-cycle N] [--setup-only]");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + k);
            return argv[++i];
        };
        if (k == "--schedule")
            a.schedule = value();
        else if (k == "--out")
            a.out = value();
        else if (k == "--spans")
            a.spans = value();
        else if (k == "--state")
            a.state = value();
        else if (k == "--core")
            a.core = value();
        else if (k == "--perturb-hash-cycle")
            a.perturbHashCycle = std::stoull(value());
        else if (k == "--setup-only")
            a.setupOnly = true;
        else
            die("unknown argument " + k);
    }
    if (a.schedule.empty() || a.out.empty())
        die("--schedule and --out are required");
    if (a.mode == "service" && a.state.empty())
        die("service mode needs --state");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Pass pass;
    try {
        if (argc == 2 && std::strcmp(argv[1], "list") == 0) {
            listKernels();
            return 0;
        }
        const Args a = parseArgs(argc, argv);
        SpanRecorder rec(!a.spans.empty());
        if (a.mode == "paper")
            runPaper(a, rec, &pass);
        else if (a.mode == "service")
            runService(a, rec, &pass);
        else if (a.mode == "predict")
            runPredict(a, rec, &pass);
        else
            die("unknown mode '" + a.mode + "'");
        writePass(a, pass, rec);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
    return 0;
}
