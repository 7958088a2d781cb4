#include "replay.h"

#include <algorithm>
#include <set>

#include "common/dictionary.h"
#include "common/rng.h"
#include "cost/calibration.h"
#include "cost/estimator.h"
#include "dist/sharded.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "mr/runtime.h"
#include "plan/grouping.h"
#include "plan/planner.h"
#include "sgf/naive_eval.h"
#include "sgf/parser.h"

namespace e2ebench {

using gumbo::Database;
using gumbo::Relation;
using gumbo::Status;
namespace cost = gumbo::cost;
namespace dist = gumbo::dist;
namespace mr = gumbo::mr;
namespace plan = gumbo::plan;
namespace serve = gumbo::serve;
namespace sgf = gumbo::sgf;

namespace {

constexpr double kMb = 1024.0 * 1024.0;
// Sharded execution in the replay uses as many in-process shards as the
// sharded workload.
constexpr int kReplayShards = 2;

// Job kinds the per-layer mr.* metrics are split by; the planner names
// every job "<KIND>(...)".
enum Kind { kMsj = 0, kEval = 1, kOther = 2 };
Kind KindOf(const std::string& job_name) {
  if (job_name.rfind("MSJ(", 0) == 0) return kMsj;
  if (job_name.rfind("EVAL(", 0) == 0) return kEval;
  return kOther;
}
const char* const kPhaseSpan[5][3] = {
    {"mr.prepare.msj", "mr.prepare.eval", "mr.prepare.other"},
    {"mr.map.msj", "mr.map.eval", "mr.map.other"},
    {"mr.partition.msj", "mr.partition.eval", "mr.partition.other"},
    {"mr.reduce.msj", "mr.reduce.eval", "mr.reduce.other"},
    {"mr.finish.msj", "mr.finish.eval", "mr.finish.other"},
};

using Sums = std::map<std::string, double>;

// Base relations `query` reads (subquery outputs excluded).
std::vector<std::string> BaseRelations(const sgf::SgfQuery& query) {
  std::set<std::string> produced;
  std::set<std::string> base;
  for (const auto& sub : query.subqueries()) {
    if (produced.count(sub.guard().relation()) == 0) {
      base.insert(sub.guard().relation());
    }
    for (const auto& atom : sub.conditional_atoms()) {
      if (produced.count(atom.relation()) == 0) base.insert(atom.relation());
    }
    produced.insert(sub.output());
  }
  return {base.begin(), base.end()};
}

// The planner's inner loop, call by call: skew classification of every
// base relation, then per dependency level of subqueries the cost of each
// candidate MSJ group of the first greedy step (every singleton and every
// pair) and the Greedy-BSGF grouping itself. Produced relations get the
// planner's catalog bound: their transitive base guard's size.
Status ReplayPlanning(const sgf::SgfQuery& query, const Database& db,
                      const plan::PlannerOptions& popts,
                      const cost::ClusterConfig& config, Tracer* tracer) {
  std::map<std::string, cost::SkewRegime> regime;
  for (const std::string& name : BaseRelations(query)) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* rel, db.Get(name));
    Tracer::Span span(tracer, "cost.classify_skew");
    regime[name] = cost::ClassifyKeySkew(*rel);
  }

  cost::StatsCatalog catalog;
  std::map<std::string, double> tuple_bound;
  std::map<std::string, int> level_of;
  std::map<int, std::vector<gumbo::ops::SemiJoinEquation>> levels;
  for (const auto& sub : query.subqueries()) {
    const std::string& g = sub.guard().relation();
    int level = 0;
    for (const auto& atom : sub.conditional_atoms()) {
      auto it = level_of.find(atom.relation());
      if (it != level_of.end()) level = std::max(level, it->second + 1);
    }
    if (level_of.count(g) > 0) level = std::max(level, level_of[g] + 1);
    level_of[sub.output()] = level;

    double guard_tuples = 0.0;
    if (tuple_bound.count(g) > 0) {
      guard_tuples = tuple_bound[g];
    } else {
      GUMBO_ASSIGN_OR_RETURN(const Relation* rel, db.Get(g));
      guard_tuples = rel->RepresentedRecords();
    }
    tuple_bound[sub.output()] = guard_tuples;
    regime[sub.output()] = regime[g];
    cost::RelationStats out_stats;
    out_stats.tuples = guard_tuples;
    out_stats.bytes_per_tuple = 10.0 * sub.OutputArity();
    out_stats.regime = regime[g];
    catalog.Put(sub.output(), out_stats);

    for (size_t i = 0; i < sub.conditional_atoms().size(); ++i) {
      gumbo::ops::SemiJoinEquation eq;
      eq.output = "x_" + sub.output() + "_" + std::to_string(i);
      eq.guard = sub.guard();
      eq.guard_dataset = g;
      eq.conditional = sub.conditional_atoms()[i];
      eq.conditional_dataset = eq.conditional.relation();
      cost::RelationStats xs;
      xs.tuples = guard_tuples;
      xs.bytes_per_tuple = popts.op.tuple_id_refs ? 8.0 : 10.0 * eq.guard.arity();
      xs.regime = regime[g];
      catalog.Put(eq.output, xs);
      levels[level].push_back(std::move(eq));
    }
  }

  for (const auto& [level, eqs] : levels) {
    const cost::CostEstimator estimator(config, popts.cost_variant, &db,
                                        &catalog, popts.sample_size);
    for (size_t i = 0; i < eqs.size(); ++i) {
      for (size_t j = i; j < eqs.size(); ++j) {
        std::vector<size_t> group = {i};
        if (j != i) group.push_back(j);
        Tracer::Span span(tracer, "plan.estimate_group");
        GUMBO_RETURN_IF_ERROR(
            plan::EstimateGroupCost(eqs, group, popts.op, estimator).status());
      }
    }
    Tracer::Span span(tracer, "plan.grouping");
    GUMBO_RETURN_IF_ERROR(
        plan::GreedyBsgfGrouping(eqs, popts.op, estimator).status());
  }
  return Status::Ok();
}

// Runs `qp` one job at a time, round by round, through the JobExecution
// phases, committing each round's outputs in job order as the round
// runtime does. Checks every job's shuffle balance.
Status ReplayJobs(mr::Engine& engine, const plan::QueryPlan& qp,
                  const Database& db, Tracer* tracer, Sums* sums,
                  Database* outputs, ReplayOutcome* outcome) {
  gumbo::SchedGroupMetrics sched;
  gumbo::SchedContext ctx;
  ctx.metrics = &sched;
  const uint64_t steals0 = engine.scheduler().stats().steals;
  Database overlay(&db);
  for (const std::vector<size_t>& round : mr::Runtime::JobRounds(qp.program)) {
    std::vector<Relation> committed;
    for (size_t j : round) {
      const mr::JobSpec& job = qp.program.job(j);
      const Kind kind = KindOf(job.name);
      std::unique_ptr<mr::JobExecution> exec;
      {
        Tracer::Span span(tracer, kPhaseSpan[0][kind]);
        GUMBO_ASSIGN_OR_RETURN(
            exec, mr::JobExecution::Prepare(engine, job, overlay, ctx));
      }
      {
        Tracer::Span span(tracer, kPhaseSpan[1][kind]);
        GUMBO_RETURN_IF_ERROR(exec->RunMaps());
        exec->AccountMaps();
      }
      {
        Tracer::Span span(tracer, kPhaseSpan[2][kind]);
        GUMBO_RETURN_IF_ERROR(exec->Partition(exec->ChooseReducers(
            exec->OwnedIntermediateMb(), exec->TotalInputMb())));
      }
      {
        Tracer::Span span(tracer, kPhaseSpan[3][kind]);
        GUMBO_RETURN_IF_ERROR(exec->RunReduces());
        exec->AccountReduces();
      }
      const std::string unbalanced = CheckShuffleBalance(
          job.name, exec->stats().shuffle_mb, exec->ReceivedMb());
      if (!unbalanced.empty()) outcome->errors.push_back(unbalanced);
      if (outcome->sent_mb == 0.0) {
        outcome->sent_mb = exec->stats().shuffle_mb;
        outcome->received_mb = exec->ReceivedMb();
      }
      mr::Engine::JobResult result;
      {
        Tracer::Span span(tracer, kPhaseSpan[4][kind]);
        GUMBO_ASSIGN_OR_RETURN(result, exec->Finish());
      }
      const mr::JobStats& s = result.stats;
      (*sums)["mr.shuffle_records"] += s.shuffle_records;
      (*sums)["mr.shuffle_messages"] += s.shuffle_messages;
      (*sums)["mr.combined_messages"] += s.combined_messages;
      (*sums)["mr.filtered_messages"] += s.filtered_messages;
      (*sums)["mr.fingerprint_collisions"] += s.fingerprint_collisions;
      for (Relation& rel : result.outputs) committed.push_back(std::move(rel));
    }
    for (Relation& rel : committed) overlay.Put(std::move(rel));
  }
  (*sums)["sched.busy_ms"] += sched.busy_us.load() / 1e3;
  (*sums)["sched.stall_ms"] += sched.stall_us.load() / 1e3;
  (*sums)["sched.morsels"] += sched.morsels.load();
  (*sums)["sched.steals"] += engine.scheduler().stats().steals - steals0;
  for (const std::string& name : qp.outputs) {
    GUMBO_ASSIGN_OR_RETURN(Relation * rel, overlay.GetMutable(name));
    outputs->Put(std::move(*rel));
  }
  return Status::Ok();
}

// The round runtime and the sharded runtime on the same plan; their
// outputs must be byte-identical, their modeled input and shuffle MB
// equal. Then the wire codec round-trips every base and output relation.
Status ReplayRuntimes(mr::Engine& engine, const plan::QueryPlan& qp,
                      const sgf::SgfQuery& query, const Database& db,
                      Tracer* tracer, Sums* sums,
                      std::vector<std::string>* errors) {
  Database single(&db);
  mr::ProgramStats ps;
  {
    Tracer::Span span(tracer, "runtime.execute");
    GUMBO_ASSIGN_OR_RETURN(ps, mr::Runtime(&engine).Execute(qp.program, &single));
  }
  Database sharded(&db);
  mr::ProgramStats ds;
  {
    Tracer::Span span(tracer, "dist.execute");
    GUMBO_ASSIGN_OR_RETURN(ds, dist::ExecuteShardedLocal(
                                   &engine, qp.program, &sharded, kReplayShards));
  }
  (*sums)["runtime.peak_concurrent_jobs"] += ps.MaxConcurrentJobs();
  (*sums)["dist.wire_mb"] += ds.DistWireMb();
  if (ps.HdfsReadMb() != ds.HdfsReadMb() || ps.ShuffleMb() != ds.ShuffleMb()) {
    errors->push_back("sharded modeled input/shuffle MB differ from one process");
  }

  std::vector<const Relation*> rels;
  for (const std::string& name : BaseRelations(query)) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* rel, db.Get(name));
    rels.push_back(rel);
  }
  for (const std::string& name : qp.outputs) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* want, single.Get(name));
    GUMBO_ASSIGN_OR_RETURN(const Relation* got, sharded.Get(name));
    const std::string diff = CheckIdentical(*got, *want);
    if (!diff.empty()) errors->push_back("sharded replay: " + diff);
    rels.push_back(want);
  }
  for (const Relation* rel : rels) {
    std::vector<uint8_t> frame;
    {
      Tracer::Span span(tracer, "dist.encode");
      frame = dist::EncodeRelationFrame(*rel, 0);
    }
    gumbo::Result<Relation> back = Status::Internal("not decoded");
    {
      Tracer::Span span(tracer, "dist.decode");
      auto reader = dist::FrameReader::Parse(frame);
      if (reader.ok()) back = dist::DecodeRelationBody(&*reader);
    }
    GUMBO_RETURN_IF_ERROR(back.status());
    const std::string diff = CheckIdentical(*back, *rel);
    if (!diff.empty()) errors->push_back("wire round trip: " + diff);
    (*sums)["dist.frame_mb"] += frame.size() / kMb;
  }
  return Status::Ok();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

gumbo::Tuple GuardFact(uint32_t arity, uint64_t domain, uint64_t seed,
                       uint64_t index) {
  gumbo::Xoshiro256 rng(gumbo::SplitMix64::Mix(seed * 0x9e3779b97f4a7c15ULL ^
                                               (index + 1)));
  gumbo::Tuple t;
  for (uint32_t a = 0; a < arity; ++a) {
    t.PushBack(gumbo::Value::Int(static_cast<int64_t>(rng.Uniform(domain))));
  }
  return t;
}

void ServeTally::Add(const serve::Response& r) {
  ++reads;
  if (r.metrics.result_cache_hit) {
    ++result_hits;
  } else if (r.metrics.delta_applied) {
    ++deltas;
    delta_rows += r.metrics.delta_rows;
  } else {
    ++executions;
    if (r.metrics.plan_cache_hit) ++plan_hits;
  }
}

void ServeTally::AddStats(const serve::ServiceStats& stats) {
  const double n = static_cast<double>(stats.completed + stats.failed);
  finished += stats.completed + stats.failed;
  queue_ms += stats.mean_queue_ms * n;
  plan_ms += stats.mean_plan_ms * n;
  exec_ms += stats.mean_exec_ms * n;
  sched_wait_ms += stats.mean_sched_wait_ms * n;
}

void ServeTally::Fill(LayerMetrics* out) const {
  LayerMetrics& m = *out;
  const double n = static_cast<double>(finished);
  m["serve.queue_ms"] = Ratio(queue_ms, n);
  m["serve.plan_ms"] = Ratio(plan_ms, n);
  m["serve.exec_ms"] = Ratio(exec_ms, n);
  m["serve.sched_wait_ms"] = Ratio(sched_wait_ms, n);
  m["serve.plan_cache_hit_ratio"] = Ratio(plan_hits, executions);
  m["serve.result_hit_ratio"] = Ratio(result_hits, reads);
  m["serve.delta_ratio"] = Ratio(deltas, deltas + executions);
  m["serve.fallback_ratio"] = Ratio(executions, reads);
  m["serve.delta_rows"] = Ratio(delta_rows, deltas);
  m["serve.addfact_ms"] = Ratio(addfact_ms, addfacts);
}

ServeTally ServeProbe(const Database& db, const std::vector<Distinct>& queries,
                      const std::string& write_relation, uint64_t seed,
                      std::vector<std::string>* errors) {
  constexpr int kProbeWrites = 4;
  Database copy = db;
  serve::QueryService service(&copy, serve::ServiceOptions{});
  ServeTally tally;
  auto run_all = [&](bool after_writes) {
    for (const Distinct& d : queries) {
      serve::Response r = service.Run(d.query);
      if (!r.ok()) {
        errors->push_back("serve probe: " + r.status.ToString());
        continue;
      }
      tally.Add(r);
      Answer want = d.reference;
      if (after_writes) {
        auto naive = sgf::NaiveEvalSgf(d.query, copy);
        if (!naive.ok()) {
          errors->push_back("serve probe reference: " +
                            naive.status().ToString());
          continue;
        }
        want = CanonicalAnswer(*naive, OutputNames(d.query));
      }
      const std::string diff =
          CompareAnswers(CanonicalAnswer(r.outputs, OutputNames(d.query)), want);
      if (!diff.empty()) errors->push_back("serve probe: " + diff);
    }
  };
  run_all(false);
  run_all(false);
  const Relation* target = *copy.Get(write_relation);
  const uint32_t arity = target->arity();
  const uint64_t domain = std::max<size_t>(target->size(), 1);
  for (int w = 0; w < kProbeWrites; ++w) {
    const Clock::time_point t0 = Clock::now();
    const Status s =
        service.AddFact(write_relation, GuardFact(arity, domain, seed, w));
    tally.AddFact(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!s.ok()) errors->push_back("serve probe write: " + s.ToString());
  }
  run_all(true);
  tally.AddStats(service.Stats());
  return tally;
}

ReplayOutcome ReplayLayers(const Database& db,
                           const std::vector<Distinct>& queries, bool traced,
                           Tracer* tracer, LayerMetrics* metrics) {
  ReplayOutcome outcome;
  const cost::ClusterConfig config;
  const plan::PlannerOptions popts;
  const plan::Planner planner(config, popts);
  mr::Engine engine(config);
  Tracer* t = traced ? tracer : nullptr;
  Sums sums;
  for (const Distinct& d : queries) {
    Tracer::Span root(t, "replay.query", traced ? t->NewQueryId() : 0);
    sgf::SgfQuery query = d.query;
    if (traced) {
      Tracer::Span span(t, "sgf.parse");
      auto parsed = sgf::ParseSgf(d.text, &gumbo::Dictionary::Global());
      if (!parsed.ok()) {
        outcome.errors.push_back("parse: " + parsed.status().ToString());
        continue;
      }
      query = std::move(*parsed);
    }
    if (traced) {
      const Status s = ReplayPlanning(query, db, popts, config, t);
      if (!s.ok()) outcome.errors.push_back("planning replay: " + s.ToString());
    }
    gumbo::Result<plan::QueryPlan> qp = Status::Internal("not planned");
    {
      Tracer::Span span(t, "plan.plan");
      qp = planner.Plan(query, db);
    }
    if (!qp.ok()) {
      outcome.errors.push_back("plan: " + qp.status().ToString());
      continue;
    }
    sums["plan.jobs"] += qp->program.size();
    sums["plan.rounds"] += qp->program.Rounds();
    Database outputs;
    Status s = ReplayJobs(engine, *qp, db, t, &sums, &outputs, &outcome);
    if (!s.ok()) {
      outcome.errors.push_back("job replay: " + s.ToString());
      continue;
    }
    const std::string diff = CompareAnswers(
        CanonicalAnswer(outputs, OutputNames(query)), d.reference);
    if (!diff.empty()) outcome.errors.push_back("job replay: " + diff);
    if (traced) {
      s = ReplayRuntimes(engine, *qp, query, db, t, &sums, &outcome.errors);
      if (!s.ok()) outcome.errors.push_back("runtime replay: " + s.ToString());
    }
  }
  if (!traced) return outcome;

  const auto totals = tracer->Totals();
  auto mean = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.MeanMs();
  };
  auto total = [&](const char* span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  LayerMetrics& m = *metrics;
  const double n = static_cast<double>(queries.size());
  m["sgf.parse_ms"] = mean("sgf.parse");
  m["cost.classify_skew_ms"] = mean("cost.classify_skew");
  m["plan.estimate_group_ms"] = mean("plan.estimate_group");
  m["plan.grouping_ms"] = mean("plan.grouping");
  m["plan.plan_ms"] = mean("plan.plan");
  m["plan.jobs"] = sums["plan.jobs"] / n;
  m["plan.rounds"] = sums["plan.rounds"] / n;
  const char* const kPhaseMetric[5] = {"mr.prepare_ms", "mr.map_ms",
                                       "mr.partition_ms", "mr.reduce_ms",
                                       "mr.finish_ms"};
  for (int p = 0; p < 5; ++p) {
    m[std::string(kPhaseMetric[p]) + ".msj"] = mean(kPhaseSpan[p][kMsj]);
    m[std::string(kPhaseMetric[p]) + ".eval"] = mean(kPhaseSpan[p][kEval]);
  }
  for (const char* c : {"mr.shuffle_records", "mr.shuffle_messages",
                        "mr.combined_messages", "mr.filtered_messages",
                        "mr.fingerprint_collisions"}) {
    m[c] = sums[c] / n;
  }
  m["mr.filter_yield"] =
      Ratio(sums["mr.filtered_messages"],
            sums["mr.filtered_messages"] + sums["mr.combined_messages"] +
                sums["mr.shuffle_messages"]);
  m["runtime.execute_ms"] = mean("runtime.execute");
  m["runtime.peak_concurrent_jobs"] = sums["runtime.peak_concurrent_jobs"] / n;
  for (const char* c :
       {"sched.busy_ms", "sched.stall_ms", "sched.morsels", "sched.steals"}) {
    m[c] = sums[c] / n;
  }
  m["dist.execute_ms"] = mean("dist.execute");
  m["dist.single_ms"] = mean("runtime.execute");
  m["dist.slowdown"] = Ratio(total("dist.execute"), total("runtime.execute"));
  m["dist.wire_mb"] = sums["dist.wire_mb"] / n;
  m["dist.encode_ms_per_mb"] = Ratio(total("dist.encode"), sums["dist.frame_mb"]);
  m["dist.decode_ms_per_mb"] = Ratio(total("dist.decode"), sums["dist.frame_mb"]);
  return outcome;
}

}  // namespace e2ebench
