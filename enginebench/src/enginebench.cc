// Engine-mode benchmark driver for Accordion.
//
// Engine mode: cost model off (cost.scale = 0), RPC latency off, real CPU,
// SF >= 0.1. Every workload runs all of its queries through api::Session on
// ONE cluster that lives for the whole run, the way a user's session would,
// and checks every answer.
//
//   enginebench --workload tpch_serial|dashboard_concurrent|elastic_dop
//               --seed N --seconds S --trace 0|1 --sf X --golden FILE
//               [--commit ID]
//   enginebench --capture-golden FILE --sf X
//
// --seconds sets the amount of work, not a timer: each workload turns it
// into a fixed query count (see QueryCount), so a run's work depends only
// on the seed and the count and scheduler-unit counts repeat exactly.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work
// with timers around each call into a layer's public functions and prints
// the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/random.h"
#include "exec/scheduler.h"
#include "plan/fragment.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "storage/page_source.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"
#include "tuner/predictor.h"

namespace accordion {
namespace {

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0;
  std::string golden;
  std::string capture_golden;
  std::string commit = "unknown";
};

// Set-up runs this many times; setup_s is the median. Cluster construction
// time is bimodal (about 45 or 65 ms at SF 0.1), so a median of three
// flips between the modes from run to run.
constexpr int kSetups = 7;
// idle_cores is measured over this quiet window after the last query.
constexpr int64_t kQuietMs = 4000;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "enginebench: %s\n"
               "usage: enginebench --workload W --seed N --seconds S "
               "--trace 0|1 --sf X --golden FILE [--commit ID]\n"
               "       enginebench --capture-golden FILE --sf X\n",
               why.c_str());
  std::exit(2);
}

void ParseFlag(const std::string& flag, const std::string& value, Args* args) {
  if (flag == "--workload") {
    args->workload = value;
  } else if (flag == "--seed") {
    args->seed = std::stoull(value);
  } else if (flag == "--seconds") {
    args->seconds = std::stod(value);
  } else if (flag == "--trace") {
    args->trace = value == "1";
  } else if (flag == "--sf") {
    args->sf = std::stod(value);
  } else if (flag == "--golden") {
    args->golden = value;
  } else if (flag == "--capture-golden") {
    args->capture_golden = value;
  } else if (flag == "--commit") {
    args->commit = value;
  } else {
    Usage("unknown flag " + flag);
  }
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      ParseFlag(flag, value, &args);
    } catch (const std::logic_error&) {  // std::sto* on a malformed number
      Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.seconds <= 0 || args.sf <= 0) {
    Usage("--seconds and --sf must be given and positive");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Process resource readings

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  double total() const { return user_s + sys_s; }
};

CpuTimes ProcessCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  CpuTimes out;
  out.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
  out.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / values.size();
}

// ---------------------------------------------------------------------------
// Answers: row count plus an order-insensitive checksum. Doubles are
// rendered with six significant digits so that aggregation order (which
// differs between plan shapes and DOPs) does not change the checksum.

struct Answer {
  int64_t rows = 0;
  uint64_t checksum = 0;
  int64_t first_value = 0;  // first column of the first row (elastic count)
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void AccumulatePage(const Page& page, Answer* answer) {
  std::string row;
  char buf[64];
  for (int64_t r = 0; r < page.num_rows(); ++r) {
    row.clear();
    for (int c = 0; c < page.num_columns(); ++c) {
      const Column& column = page.column(c);
      if (column.IsNull(r)) {
        row += "N|";
        continue;
      }
      switch (column.type()) {
        case DataType::kDouble:
          std::snprintf(buf, sizeof(buf), "%.5e|", column.DoubleAt(r) + 0.0);
          row += buf;
          break;
        case DataType::kString:
          row += column.StrAt(r);
          row += '|';
          break;
        default:
          row += std::to_string(column.IntAt(r));
          row += '|';
          break;
      }
    }
    if (answer->rows == 0 && page.num_columns() > 0 &&
        page.column(0).type() != DataType::kDouble &&
        page.column(0).type() != DataType::kString) {
      answer->first_value = page.column(0).IntAt(r);
    }
    answer->checksum += Fnv1a(row);
    ++answer->rows;
  }
}

// A run must end within a fixed wall budget even if a query stalls: every
// blocking cursor call waits at most until this deadline, after which the
// query is aborted and counted as failed, and no further query starts.
constexpr int64_t kRunBudgetMs = 140000;
std::atomic<int64_t> g_deadline_us{INT64_MAX};

int64_t MillisToDeadline() { return (g_deadline_us.load() - NowMicros()) / 1000; }

// ---------------------------------------------------------------------------
// Cluster set-up

constexpr int kWorkers = 4;
constexpr double kSlowQueryMs = 1000;
constexpr int kStorageNodes = 4;

AccordionCluster::Options EngineModeOptions(double sf) {
  AccordionCluster::Options options;
  options.num_workers = kWorkers;
  options.num_storage_nodes = kStorageNodes;
  options.scale_factor = sf;
  options.engine.cost.scale = 0;        // no simulated per-row cost
  options.engine.rpc_latency_ms = 0;    // no simulated RPC sleep
  return options;
}

// ---------------------------------------------------------------------------
// Queries

enum class QueryKind { kSql, kPrepared, kPlan };

struct QuerySpec {
  std::string key;  // golden-file key
  QueryKind kind = QueryKind::kSql;
  std::string sql;
  const PreparedStatement* prepared = nullptr;
  const SqlQuery* prepared_parsed = nullptr;  // traced path binds this
  std::vector<Value> params;
  PlanNodePtr plan;
  QueryOptions options;
};

const char* kSupplierNationSql =
    "SELECT n_name, count(*) AS suppliers, sum(s_acctbal) AS total_acctbal "
    "FROM supplier, nation WHERE s_nationkey = n_nationkey "
    "GROUP BY n_name ORDER BY n_name";

const char* kCustomerAggSql =
    "SELECT c_mktsegment, count(*) AS customers, "
    "sum(c_acctbal) AS total_acctbal FROM customer "
    "WHERE c_nationkey = ? AND c_acctbal > ? "
    "GROUP BY c_mktsegment ORDER BY c_mktsegment";

// Bound-parameter domain of the prepared customer aggregate; the golden
// file holds every combination.
constexpr int kNations = 25;
const double kAcctbalThresholds[] = {-500.0, 0.0, 2500.0, 5000.0, 7500.0};
constexpr int kThresholds = 5;

std::string CustomerAggKey(int nation, int threshold_index) {
  return "cust_agg:" + std::to_string(nation) + ":" +
         std::to_string(static_cast<int>(kAcctbalThresholds[threshold_index]));
}

// Per-query measurements. Layer fields are filled only by traced runs.
struct QueryRecord {
  std::string key;
  bool ok = false;
  std::string error;
  Answer answer;
  double wall_ms = 0;
  int64_t end_us = 0;  // when the cursor reached end of stream
  // Elastic query: DOP calls that returned OK, by direction.
  int scale_out_calls = 0;
  int scale_in_calls = 0;
  // traced
  double parse_us = 0;
  double analyze_us = 0;
  double submit_ms = 0;
  double first_page_ms = 0;
  double drain_ms = 0;
  double snapshot_us = 0;
  PlanNodePtr plan;
  int64_t prefetches = 0;
  int64_t prefetch_hits = 0;
  QuerySnapshot snapshot;
  bool has_snapshot = false;
};

// Submits one query through the session. The untraced path uses the
// session's one-call front doors; the traced path performs the same steps
// (parse, bind, analyze, submit) as separate calls with a timer around each.
Result<QueryHandlePtr> Submit(Session* session, const QuerySpec& spec,
                              bool trace, QueryRecord* record) {
  if (!trace) {
    switch (spec.kind) {
      case QueryKind::kSql:
        return session->Execute(spec.sql, spec.options);
      case QueryKind::kPrepared:
        return session->Execute(*spec.prepared, spec.params, spec.options);
      case QueryKind::kPlan:
        return session->Execute(spec.plan, spec.options);
    }
  }
  PlanNodePtr plan = spec.plan;
  if (spec.kind != QueryKind::kPlan) {
    Stopwatch parse;
    Result<SqlQuery> query = spec.kind == QueryKind::kSql
                                 ? ParseSqlQuery(spec.sql)
                                 : BindPlaceholders(*spec.prepared_parsed,
                                                    spec.params);
    record->parse_us = parse.ElapsedMicros();
    ACCORDION_RETURN_NOT_OK(query.status());
    Stopwatch analyze;
    auto analyzed =
        AnalyzeSql(*query, session->catalog(), spec.options.optimizer);
    record->analyze_us = analyze.ElapsedMicros();
    ACCORDION_RETURN_NOT_OK(analyzed.status());
    plan = *analyzed;
  }
  record->plan = plan;
  Stopwatch submit;
  auto handle = session->Execute(plan, spec.options);
  record->submit_ms = submit.ElapsedMicros() / 1000.0;
  return handle;
}

// Reads the cursor to end of stream, folding every page into the answer.
// `handle_us` is when Execute returned: first_page_ms runs from there.
Status Drain(QueryHandle* handle, bool trace, int64_t handle_us,
             QueryRecord* record) {
  ResultCursor cursor = handle->Cursor();
  bool seen_first = false;
  Stopwatch drain;
  while (true) {
    auto page = cursor.Next(std::max<int64_t>(1, MillisToDeadline()));
    if (!page.ok()) {
      handle->Abort();
      return page.status();
    }
    if (!seen_first) {
      seen_first = true;
      record->first_page_ms = (NowMicros() - handle_us) / 1000.0;
      drain.Restart();
    }
    if (*page == nullptr) break;
    AccumulatePage(**page, &record->answer);
  }
  record->drain_ms = drain.ElapsedMicros() / 1000.0;
  record->end_us = NowMicros();
  if (trace) {
    record->prefetches = cursor.prefetches_issued();
    record->prefetch_hits = cursor.prefetch_hits();
  }
  return Status::OK();
}

// Post-query counters (traced runs only): the snapshot read is timed.
void ReadSnapshot(QueryHandle* handle, QueryRecord* record) {
  Stopwatch sw;
  auto snapshot = handle->Snapshot();
  record->snapshot_us += sw.ElapsedMicros();
  if (snapshot.ok()) {
    record->snapshot = std::move(*snapshot);
    record->has_snapshot = true;
  }
}

// Runs one query end to end: submit, drain, and (traced) counters.
QueryRecord RunQuery(Session* session, const QuerySpec& spec, bool trace) {
  QueryRecord record;
  record.key = spec.key;
  Stopwatch wall;
  auto handle = Submit(session, spec, trace, &record);
  Status status = handle.status();
  if (status.ok()) status = Drain(handle->get(), trace, NowMicros(), &record);
  record.wall_ms = wall.ElapsedMicros() / 1000.0;
  record.ok = status.ok();
  if (!status.ok()) record.error = status.ToString();
  if (trace && handle.ok()) ReadSnapshot(handle->get(), &record);
  return record;
}

// ---------------------------------------------------------------------------
// Golden answers

using Golden = std::map<std::string, Answer>;

bool LoadGolden(const std::string& path, Golden* golden) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    Answer answer;
    if (fields >> key >> answer.rows >> answer.checksum) {
      (*golden)[key] = answer;
    }
  }
  return !golden->empty();
}

std::string FormatSf(double sf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", sf);
  return buf;
}

// Every query text the serial and dashboard workloads can draw.
std::vector<std::pair<std::string, std::string>> FixedSqlQueries() {
  std::vector<std::pair<std::string, std::string>> out;
  for (int q = 1; q <= 12; ++q) {
    out.emplace_back("tpch_q" + std::to_string(q), TpchQuerySql(q));
  }
  out.emplace_back("supplier_nation", kSupplierNationSql);
  return out;
}

// Captures answers at DOP 1 with the optimizer off — a different plan
// shape from the timed runs, which use the cost-based optimizer.
int CaptureGolden(const Args& args) {
  AccordionCluster cluster(EngineModeOptions(args.sf));
  Session session(cluster.coordinator());
  QueryOptions options;
  options.optimizer = OptimizerOptions::Off();
  std::vector<QuerySpec> specs;
  for (const auto& [key, sql] : FixedSqlQueries()) {
    QuerySpec spec;
    spec.key = key;
    spec.sql = sql;
    spec.options = options;
    specs.push_back(spec);
  }
  auto prepared = session.Prepare(kCustomerAggSql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  for (int n = 0; n < kNations; ++n) {
    for (int t = 0; t < kThresholds; ++t) {
      QuerySpec spec;
      spec.key = CustomerAggKey(n, t);
      spec.kind = QueryKind::kPrepared;
      spec.prepared = &*prepared;
      spec.params = {Value::Int(n), Value::Double(kAcctbalThresholds[t])};
      spec.options = options;
      specs.push_back(spec);
    }
  }
  std::ofstream out(args.capture_golden);
  out << "# key rows checksum — SF " << FormatSf(args.sf)
      << ", DOP 1, OptimizerOptions::Off()\n";
  for (const auto& spec : specs) {
    QueryRecord record = RunQuery(&session, spec, /*trace=*/false);
    if (!record.ok) {
      std::fprintf(stderr, "%s failed: %s\n", spec.key.c_str(),
                   record.error.c_str());
      return 1;
    }
    out << spec.key << " " << record.answer.rows << " "
        << record.answer.checksum << "\n";
  }
  std::fprintf(stderr, "wrote %zu answers to %s\n", specs.size(),
               args.capture_golden.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads

struct DopCall {
  bool up = false;
  bool task_level = false;  // SetTaskDop rather than SetStageDop
  double ms = 0;
  bool partitioned_switch = false;
  DopSwitchReport report;
};

struct ElasticTelemetry {
  std::vector<DopCall> calls;
  std::vector<double> estimate_us;
  std::vector<double> predict_error;
  std::vector<double> snapshot_us;
};

struct WorkloadConfig {
  std::string name;
  int stage_dop = 1;
  int task_dop = 1;
  int clients = 1;
  // Queries per second of --seconds: turns the run length into a fixed
  // query count, calibrated on a 4-vCPU machine so a run lasts about
  // --seconds at this scale factor.
  double queries_per_second = 1;
  // TPC-H query (a join of the workload's own set) used as the warm-up.
  int warmup_query = 3;
};

WorkloadConfig ConfigFor(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "tpch_serial") {
    config.stage_dop = config.task_dop = 2;
    config.queries_per_second = 3.6;
  } else if (name == "dashboard_concurrent") {
    config.clients = 3;
    config.warmup_query = 2;
    config.queries_per_second = 55;
  } else if (name == "elastic_dop") {
    config.queries_per_second = 1.25;
  } else {
    Usage("unknown workload " + name);
  }
  return config;
}

int QueryCount(const WorkloadConfig& config, double seconds) {
  int count = static_cast<int>(std::lround(seconds * config.queries_per_second));
  if (config.name == "tpch_serial") {  // whole passes over the 12 queries
    count = std::max(1, (count + 6) / 12) * 12;
  }
  return std::max(count, config.clients);
}

struct Workload {
  WorkloadConfig config;
  double sf = 0.1;
  QueryOptions options;
  // Per client, the query sequence (built before the clock starts).
  std::vector<std::vector<QuerySpec>> sequences;
  std::unique_ptr<PreparedStatement> prepared;
  std::unique_ptr<SqlQuery> prepared_parsed;
  // Exact generated lineitem row count: the elastic query's answer.
  // (TpchRowCount is only approximate for lineitem.)
  int64_t lineitem_rows = 0;
};

void BuildSequences(const Args& args, Session* session, Workload* w) {
  int count = QueryCount(w->config, args.seconds);
  w->sequences.assign(w->config.clients, {});
  if (w->config.name == "tpch_serial") {
    for (int i = 0; i < count; ++i) {
      int q = i % 12 + 1;
      QuerySpec spec;
      spec.key = "tpch_q" + std::to_string(q);
      spec.sql = TpchQuerySql(q);
      spec.options = w->options;
      w->sequences[0].push_back(spec);
    }
  } else if (w->config.name == "dashboard_concurrent") {
    auto prepared = session->Prepare(kCustomerAggSql);
    auto parsed = ParseSqlQuery(kCustomerAggSql);
    if (!prepared.ok() || !parsed.ok()) {
      std::fprintf(stderr, "prepare failed\n");
      std::exit(1);
    }
    w->prepared = std::make_unique<PreparedStatement>(std::move(*prepared));
    w->prepared_parsed = std::make_unique<SqlQuery>(std::move(*parsed));
    for (int c = 0; c < w->config.clients; ++c) {
      Random rng(args.seed * 1000003ULL + c + 1);
      int share = count / w->config.clients +
                  (c < count % w->config.clients ? 1 : 0);
      // Every client runs the four query kinds in equal shares, in a
      // seeded order: the seed changes the sequence and the bound values,
      // never how much work a run holds.
      std::vector<int> kinds(share);
      for (int i = 0; i < share; ++i) kinds[i] = i % 4;
      for (int i = share - 1; i > 0; --i) {
        std::swap(kinds[i], kinds[rng.NextInt(0, i)]);
      }
      for (int i = 0; i < share; ++i) {
        QuerySpec spec;
        spec.options = w->options;
        switch (kinds[i]) {
          case 0:
            spec.key = "tpch_q2";
            spec.sql = TpchQuerySql(2);
            break;
          case 1:
            spec.key = "tpch_q11";
            spec.sql = TpchQuerySql(11);
            break;
          case 2:
            spec.key = "supplier_nation";
            spec.sql = kSupplierNationSql;
            break;
          default: {
            int nation = static_cast<int>(rng.NextInt(0, kNations - 1));
            int t = static_cast<int>(rng.NextInt(0, kThresholds - 1));
            spec.key = CustomerAggKey(nation, t);
            spec.kind = QueryKind::kPrepared;
            spec.prepared = w->prepared.get();
            spec.prepared_parsed = w->prepared_parsed.get();
            spec.params = {Value::Int(nation),
                           Value::Double(kAcctbalThresholds[t])};
            break;
          }
        }
        w->sequences[c].push_back(spec);
      }
    }
  } else {  // elastic_dop
    for (int i = 0; i < count; ++i) {
      QuerySpec spec;
      spec.key = "q2j";
      spec.kind = QueryKind::kPlan;
      spec.plan = TpchQ2JPlan(session->catalog());
      spec.options = w->options;
      w->sequences[0].push_back(spec);
    }
  }
}

// The elastic query: scale out at 20% lineitem scan progress, scale in at
// 70%, progress read from Snapshot while the predictor keeps its rate
// history current. Then drains the single count row. Scaling out makes
// kScaleOutCalls DOP calls and scaling in kScaleInCalls; a query that did
// not complete all of them fails its answer check.
constexpr int kScaleOutCalls = 3;
constexpr int kScaleInCalls = 2;

QueryRecord RunElasticQuery(Session* session, Predictor* predictor,
                            const QuerySpec& spec, bool trace,
                            ElasticTelemetry* telemetry) {
  QueryRecord record;
  record.key = spec.key;
  Stopwatch wall;
  auto handle = Submit(session, spec, trace, &record);
  if (!handle.ok()) {
    record.error = handle.status().ToString();
    record.wall_ms = wall.ElapsedMicros() / 1000.0;
    return record;
  }
  QueryHandle* q = handle->get();
  int64_t handle_us = NowMicros();
  int join_stage = -1;
  int scan_stage = -1;
  int phase = 0;  // 0: before scale-out, 1: scaled out, 2: scaled in
  double predicted_remaining_s = -1;
  int64_t scaled_out_us = 0;
  Status status;
  auto timed_dop = [&](int stage, int dop, bool up, bool partitioned,
                       bool task_level) {
    DopCall call;
    call.up = up;
    call.partitioned_switch = partitioned;
    call.task_level = task_level;
    Stopwatch sw;
    Status st = task_level ? q->SetTaskDop(stage, dop)
                           : q->SetStageDop(stage, dop,
                                            partitioned ? &call.report
                                                        : nullptr);
    call.ms = sw.ElapsedMicros() / 1000.0;
    telemetry->calls.push_back(call);
    if (st.ok()) ++(up ? record.scale_out_calls : record.scale_in_calls);
    return st;
  };
  while (phase < 2 && status.ok() && MillisToDeadline() > 0) {
    Stopwatch snap_sw;
    auto snapshot = q->Snapshot();
    double snap_us = snap_sw.ElapsedMicros();
    if (!snapshot.ok()) {
      status = snapshot.status();
      break;
    }
    if (trace) telemetry->snapshot_us.push_back(snap_us);
    if (snapshot->state != QueryState::kRunning) break;
    if (join_stage < 0) {
      for (const auto& stage : snapshot->stages) {
        if (stage.has_join) join_stage = stage.stage_id;
        if (stage.scan_table == "lineitem") scan_stage = stage.stage_id;
      }
    }
    const StageSnapshot* scan = snapshot->stage(scan_stage);
    if (join_stage < 0 || scan == nullptr) {
      status = Status::Internal("q2j stages not found");
      break;
    }
    Stopwatch est_sw;
    auto estimate = predictor->EstimateRemaining(q->id(), join_stage);
    if (trace) telemetry->estimate_us.push_back(est_sw.ElapsedMicros());
    (void)estimate;
    double progress =
        scan->scan_total_rows > 0
            ? static_cast<double>(scan->scan_rows) / scan->scan_total_rows
            : 0;
    if (phase == 0 && progress >= 0.2) {
      auto what_if = predictor->PredictAfterTuning(q->id(), join_stage, 4);
      if (what_if.ok()) predicted_remaining_s = what_if->predicted_seconds;
      scaled_out_us = NowMicros();
      status = timed_dop(join_stage, 4, true, true, false);
      if (status.ok()) status = timed_dop(scan_stage, 3, true, false, false);
      if (status.ok()) status = timed_dop(scan_stage, 2, true, false, true);
      phase = 1;
    } else if (phase == 1 && progress >= 0.7) {
      status = timed_dop(join_stage, 2, false, true, false);
      if (status.ok()) status = timed_dop(scan_stage, 1, false, false, false);
      phase = 2;
    } else if (progress >= 1.0) {
      break;  // scan done without a switch: the answer check fails it
    } else {
      SleepForMillis(5);
    }
  }
  if (status.ok()) status = Drain(q, trace, handle_us, &record);
  record.wall_ms = wall.ElapsedMicros() / 1000.0;
  record.ok = status.ok();
  if (!status.ok()) record.error = status.ToString();
  if (trace && predicted_remaining_s >= 0 && scaled_out_us > 0) {
    double observed_s = (record.end_us - scaled_out_us) * 1e-6;
    if (observed_s > 0) {
      telemetry->predict_error.push_back(
          std::fabs(predicted_remaining_s - observed_s) / observed_s);
    }
  }
  if (trace) ReadSnapshot(q, &record);
  return record;
}

// Checks one answer; returns an empty string when it is right.
std::string CheckAnswer(const Workload& w, const Golden& golden,
                        const QueryRecord& record) {
  if (!record.ok) return "query failed: " + record.error;
  if (w.config.name == "elastic_dop") {
    if (record.answer.rows != 1 ||
        record.answer.first_value != w.lineitem_rows) {
      return "count " + std::to_string(record.answer.first_value) +
             " != lineitem rows " + std::to_string(w.lineitem_rows);
    }
    // A query that finished at its starting DOP measured no DOP switch.
    if (record.scale_out_calls != kScaleOutCalls ||
        record.scale_in_calls != kScaleInCalls) {
      return "no DOP switch: " + std::to_string(record.scale_out_calls) +
             " scale-out and " + std::to_string(record.scale_in_calls) +
             " scale-in calls";
    }
    return "";
  }
  auto it = golden.find(record.key);
  if (it == golden.end()) return "no golden answer for " + record.key;
  if (it->second.rows != record.answer.rows ||
      it->second.checksum != record.answer.checksum) {
    return "answer mismatch: " + std::to_string(record.answer.rows) +
           " rows, checksum " + std::to_string(record.answer.checksum) +
           " vs golden " + std::to_string(it->second.rows) + " rows, " +
           std::to_string(it->second.checksum);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  g_deadline_us = NowMicros() + kRunBudgetMs * 1000;
  Workload w;
  w.config = ConfigFor(args.workload);
  w.sf = args.sf;
  w.options.stage_dop = w.config.stage_dop;
  w.options.task_dop = w.config.task_dop;
  w.lineitem_rows = GeneratorPageSource("lineitem", w.sf, 0, 1).TotalRows();

  Golden golden;
  if (w.config.name != "elastic_dop") {
    if (args.golden.empty() || !LoadGolden(args.golden, &golden)) {
      std::fprintf(stderr, "enginebench: cannot read golden answers '%s'\n",
                   args.golden.c_str());
      return 1;
    }
  }

  // --- set-up, repeated; the last cluster is kept for the workload ---
  std::vector<double> setup_s;
  std::unique_ptr<AccordionCluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    Stopwatch sw;
    cluster = std::make_unique<AccordionCluster>(EngineModeOptions(w.sf));
    double construct_s = sw.ElapsedSeconds();
    // Warm-up: one join query of the workload's own set, run as the
    // workload runs it, so pool threads, exchanges and allocators are live
    // before the first timed query. Without it the first join of a
    // process runs up to 1.7x slower. Its leaked scheduler units show in
    // the meta line's units_after_setup.
    Session warm(cluster->coordinator());
    QuerySpec spec;
    spec.key = "warmup";
    spec.options = w.options;
    QueryRecord warmup;
    if (w.config.name == "elastic_dop") {
      spec.kind = QueryKind::kPlan;
      spec.plan = TpchQ2JPlan(cluster->coordinator()->catalog());
      Predictor predictor(cluster->coordinator());
      ElasticTelemetry ignored;
      warmup = RunElasticQuery(&warm, &predictor, spec, false, &ignored);
    } else {
      spec.sql = TpchQuerySql(w.config.warmup_query);
      warmup = RunQuery(&warm, spec, false);
    }
    if (!warmup.ok) {
      std::fprintf(stderr, "warm-up failed: %s\n", warmup.error.c_str());
      return 1;
    }
    setup_s.push_back(sw.ElapsedSeconds());
    std::fprintf(stderr, "setup %d: %.3f s (cluster %.3f s)\n", i,
                 setup_s.back(), construct_s);
  }
  Coordinator* coordinator = cluster->coordinator();
  MorselScheduler* scheduler = cluster->scheduler();
  int units_after_setup = scheduler->num_units();

  std::vector<std::unique_ptr<Session>> sessions;
  for (int c = 0; c < w.config.clients; ++c) {
    sessions.push_back(std::make_unique<Session>(coordinator));
  }
  BuildSequences(args, sessions[0].get(), &w);
  Predictor predictor(coordinator);
  ElasticTelemetry telemetry;

  // --- measured phase ---
  std::vector<std::vector<QueryRecord>> records(w.config.clients);
  int64_t rpc_before = coordinator->total_rpc_requests();
  CpuTimes cpu_before = ProcessCpu();
  Stopwatch phase;
  std::vector<std::thread> clients;
  for (int c = 0; c < w.config.clients; ++c) {
    clients.emplace_back([&, c] {
      for (const QuerySpec& spec : w.sequences[c]) {
        if (MillisToDeadline() <= 0) break;
        if (w.config.name == "elastic_dop") {
          records[c].push_back(RunElasticQuery(sessions[c].get(), &predictor,
                                               spec, args.trace, &telemetry));
        } else {
          records[c].push_back(
              RunQuery(sessions[c].get(), spec, args.trace));
        }
        const QueryRecord& r = records[c].back();
        if (r.wall_ms > kSlowQueryMs) {  // keeps tail stalls visible
          std::fprintf(stderr, "slow query: client %d #%zu %s %.0f ms\n", c,
                       records[c].size() - 1, r.key.c_str(), r.wall_ms);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  double phase_s = phase.ElapsedSeconds();
  CpuTimes cpu_after = ProcessCpu();
  int64_t rpc_after = coordinator->total_rpc_requests();

  // --- quiet window: every cursor has reached end of stream ---
  int64_t last_end_us = 0;
  for (const auto& client : records) {
    for (const auto& r : client) last_end_us = std::max(last_end_us, r.end_us);
  }
  int64_t quiet_start_us = NowMicros();
  CpuTimes quiet_before = ProcessCpu();
  SleepForMillis(kQuietMs);
  CpuTimes quiet_after = ProcessCpu();
  double quiet_s = (NowMicros() - quiet_start_us) * 1e-6;
  double idle_cores = (quiet_after.total() - quiet_before.total()) / quiet_s;
  int live_units = scheduler->num_units();
  int live_groups = scheduler->num_groups();

  // --- answers ---
  std::vector<QueryRecord> all;
  for (auto& client : records) {
    for (auto& r : client) all.push_back(std::move(r));
  }
  // Queries the run deadline kept from starting count as failed.
  int attempted = 0;
  for (const auto& sequence : w.sequences) {
    attempted += static_cast<int>(sequence.size());
  }
  int failed = attempted - static_cast<int>(all.size());
  if (failed > 0) {
    std::fprintf(stderr, "run deadline: %d queries not started\n", failed);
  }
  for (const auto& r : all) {
    std::string problem = CheckAnswer(w, golden, r);
    if (!problem.empty()) {
      ++failed;
      if (failed <= 5) {
        std::fprintf(stderr, "wrong answer (%s): %s\n", r.key.c_str(),
                     problem.c_str());
      }
    }
  }
  int completed = attempted - failed;
  int dop_calls = 0;
  for (const auto& r : all) dop_calls += r.scale_out_calls + r.scale_in_calls;
  std::vector<double> latencies;
  for (const auto& r : all) {
    if (r.ok) latencies.push_back(r.wall_ms);
  }
  double cpu_s = cpu_after.total() - cpu_before.total();

  // --- metadata stamp ---
  std::printf(
      "meta {\"mode\": \"engine\", \"workload\": \"%s\", \"sf\": %s, "
      "\"stage_dop\": %d, \"task_dop\": %d, \"clients\": %d, "
      "\"queries\": %d, \"pool_threads\": %d, \"nproc\": %ld, "
      "\"workers\": %d, \"seed\": %" PRIu64 ", \"commit\": \"%s\", "
      "\"trace\": %d, \"cost_scale\": 0, \"rpc_latency_ms\": 0, "
      "\"last_end_of_stream_us\": %" PRId64 ", \"quiet_start_us\": %" PRId64
      ", \"quiet_ms\": %" PRId64 ", \"units_after_setup\": %d, "
      "\"dop_calls\": %d}\n",
      w.config.name.c_str(), FormatSf(w.sf).c_str(), w.config.stage_dop,
      w.config.task_dop, w.config.clients, attempted, scheduler->num_threads(),
      sysconf(_SC_NPROCESSORS_ONLN), kWorkers, args.seed,
      JsonEscape(args.commit).c_str(), args.trace ? 1 : 0, last_end_us,
      quiet_start_us, kQuietMs, units_after_setup, dop_calls);

  std::vector<Metric> metrics;
  // Human-readable extras that are not part of the machine-read metric set.
  std::vector<Metric> extras;
  extras.push_back({"failed_frac",
                    attempted > 0 ? static_cast<double>(failed) / attempted : 0,
                    "frac"});
  extras.push_back({"latency_samples", static_cast<double>(latencies.size()),
                    "count"});
  extras.push_back({"latency_p99_ms", Percentile(latencies, 0.99), "ms"});
  extras.push_back({"latency_max_ms", Percentile(latencies, 1.0), "ms"});
  extras.push_back({"measured_s", phase_s, "s"});
  // The leak's idle burn. Not gated: it should be ~0, where a relative
  // bound measures only noise; the traced run reports it per layer.
  if (!args.trace) extras.push_back({"idle_cores", idle_cores, "cores"});

  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"qps", completed / phase_s, "1/s"});
    metrics.push_back({"latency_p50_ms", Median(latencies), "ms"});
    metrics.push_back({"latency_p95_ms", Percentile(latencies, 0.95), "ms"});
    metrics.push_back({"cpu_ms_per_query",
                       completed > 0 ? cpu_s * 1000.0 / completed : 0, "ms"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    std::vector<double> dop_ms;
    for (const auto& call : telemetry.calls) dop_ms.push_back(call.ms);
    if (!dop_ms.empty()) extras.push_back({"dop_switch_ms", Median(dop_ms), "ms"});
    extras.push_back({"live_units", static_cast<double>(live_units), "count"});
  } else {
    // Per-query layer times.
    std::vector<double> parse, analyze, submit, first_page, drain, unattr;
    std::vector<double> snapshot_us = telemetry.snapshot_us;
    double wall_sum = 0, unattr_sum = 0;
    double scan_rows = 0, processed_rows = 0, exchange_bytes = 0;
    double hash_build_ms = 0, peak_build = 0, spill = 0, retries = 0;
    double prefetches = 0, prefetch_hits = 0;
    int snapshots = 0;
    for (const auto& r : all) {
      if (!r.ok) continue;
      if (w.config.name != "elastic_dop") {
        parse.push_back(r.parse_us);
        analyze.push_back(r.analyze_us);
      }
      submit.push_back(r.submit_ms);
      first_page.push_back(r.first_page_ms);
      drain.push_back(r.drain_ms);
      snapshot_us.push_back(r.snapshot_us);
      double attributed = (r.parse_us + r.analyze_us) / 1000.0 + r.submit_ms +
                          r.first_page_ms + r.drain_ms;
      unattr.push_back(r.wall_ms - attributed);
      wall_sum += r.wall_ms;
      unattr_sum += r.wall_ms - attributed;
      prefetches += r.prefetches;
      prefetch_hits += r.prefetch_hits;
      if (!r.has_snapshot) continue;
      ++snapshots;
      const QuerySnapshot& s = r.snapshot;
      retries += s.rpc_retries;
      peak_build += s.peak_build_bytes;
      spill += s.spill_bytes_written;
      for (const auto& stage : s.stages) {
        scan_rows += stage.scan_rows;
        processed_rows += stage.processed_rows;
        if (stage.stage_id != 0) exchange_bytes += stage.output_bytes;
        hash_build_ms += stage.hash_build_us_max / 1000.0;
      }
    }
    double per_snap = snapshots > 0 ? 1.0 / snapshots : 0;

    // Off-path work, after the measured phase: fragmenting each query's
    // plan, and generating every split each query scans.
    Stopwatch off_path;
    std::vector<double> fragment_us, stages;
    std::map<std::string, double> table_gen_ms;
    std::vector<double> gen_ms_per_query;
    for (const auto& r : all) {
      if (!r.ok || r.plan == nullptr) continue;
      Stopwatch sw;
      std::vector<PlanFragment> fragments = FragmentPlan(r.plan);
      fragment_us.push_back(sw.ElapsedMicros());
      stages.push_back(static_cast<double>(fragments.size()));
      double gen_ms = 0;
      for (const auto& fragment : fragments) {
        if (!fragment.IsScanStage()) continue;
        const std::string& table = fragment.scan_table;
        auto it = table_gen_ms.find(table);
        if (it == table_gen_ms.end()) {
          auto layout = coordinator->catalog().GetLayout(table);
          int splits = layout.ok() ? layout->TotalSplits() : 1;
          Stopwatch gen;
          for (int s = 0; s < splits; ++s) {
            GenerateSplit(table, w.sf, s, splits,
                          cluster->engine_config().batch_rows);
          }
          it = table_gen_ms.emplace(table, gen.ElapsedMicros() / 1000.0).first;
        }
        gen_ms += it->second;
      }
      gen_ms_per_query.push_back(gen_ms);
    }
    double off_path_s = off_path.ElapsedSeconds();

    std::vector<double> up_ms, down_ms, switch_ms, shuffle_ms, build_ms;
    for (const auto& call : telemetry.calls) {
      switch_ms.push_back(call.ms);
      if (!call.task_level) (call.up ? up_ms : down_ms).push_back(call.ms);
      if (call.partitioned_switch) {
        shuffle_ms.push_back(call.report.shuffle_seconds * 1000.0);
        build_ms.push_back(call.report.build_seconds * 1000.0);
      }
    }
    double cpu_total = cpu_s > 0 ? cpu_s : 1e-9;
    int n = std::max(1, completed);
    metrics = {
        {"sql.parse_us", Median(parse), "us"},
        {"sql.analyze_us", Median(analyze), "us"},
        {"plan.fragment_us", Median(fragment_us), "us"},
        {"plan.stages", Mean(stages), "count"},
        {"cluster.submit_ms", Median(submit), "ms"},
        {"cluster.rpc_per_query",
         static_cast<double>(rpc_after - rpc_before) / n, "count"},
        {"cluster.dop_switch_ms", Median(switch_ms), "ms"},
        {"cluster.dop_up_ms", Median(up_ms), "ms"},
        {"cluster.dop_down_ms", Median(down_ms), "ms"},
        {"cluster.switch_shuffle_ms", Median(shuffle_ms), "ms"},
        {"cluster.switch_build_ms", Median(build_ms), "ms"},
        {"cluster.snapshot_us", Median(snapshot_us), "us"},
        {"cluster.rpc_retries", retries, "count"},
        {"exec.first_page_ms", Median(first_page), "ms"},
        {"exec.scan_rows", scan_rows * per_snap, "count"},
        {"exec.processed_rows", processed_rows * per_snap, "count"},
        {"exec.exchange_mb", exchange_bytes * per_snap / 1048576.0, "MB"},
        {"exec.hash_build_ms", hash_build_ms * per_snap, "ms"},
        {"exec.peak_build_mb", peak_build * per_snap / 1048576.0, "MB"},
        {"exec.spill_mb", spill * per_snap / 1048576.0, "MB"},
        {"exec.pool_busy_frac",
         cpu_s / (phase_s * scheduler->num_threads()), "frac"},
        {"exec.sys_cpu_frac", (cpu_after.sys_s - cpu_before.sys_s) / cpu_total,
         "frac"},
        {"exec.live_units", static_cast<double>(live_units), "count"},
        {"exec.live_groups", static_cast<double>(live_groups), "count"},
        {"idle_cores", idle_cores, "cores"},
        {"storage.gen_ms_per_query", Mean(gen_ms_per_query), "ms"},
        {"api.drain_ms", Median(drain), "ms"},
        {"api.prefetch_hit_frac",
         prefetches > 0 ? prefetch_hits / prefetches : 0, "frac"},
        {"tuner.estimate_us", Median(telemetry.estimate_us), "us"},
        {"tuner.predict_error", Median(telemetry.predict_error), "frac"},
        {"trace.unattributed_ms", Median(unattr), "ms"},
        {"trace.unattributed_frac", wall_sum > 0 ? unattr_sum / wall_sum : 0,
         "frac"},
        {"trace.offpath_frac", off_path_s / phase_s, "frac"},
        {"trace.wall_ms_per_query", phase_s * 1000.0 / n, "ms"},
    };
  }

  // Per query kind latency, to show which queries set the tail.
  std::map<std::string, std::vector<double>> by_kind;
  for (const auto& r : all) {
    if (r.ok) by_kind[r.key.substr(0, r.key.find(':'))].push_back(r.wall_ms);
  }
  for (const auto& [kind, values] : by_kind) {
    std::printf("kind %-22s n=%-5zu p50 %9.3f ms  max %9.3f ms\n",
                kind.c_str(), values.size(), Median(values),
                *std::max_element(values.begin(), values.end()));
  }
  for (const auto& m : metrics) {
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : extras) {
    std::printf("%-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace accordion

int main(int argc, char** argv) {
  accordion::Args args = accordion::ParseArgs(argc, argv);
  if (!args.capture_golden.empty()) return accordion::CaptureGolden(args);
  if (args.workload.empty()) accordion::Usage("--workload is required");
  return accordion::Run(args);
}
