// Chaos-soak harness (sim/chaos_soak.h): the full fixed-seed soak must come
// back with zero findings and zero split-brains, a single campaign must
// replay byte-identically (trace JSONL and plan JSON both), every
// generated FaultPlan must round-trip through the JSON loader it claims to
// be replayable with, the live streaming oracle must agree with the batch
// checkers over the kept trace, and the oracle must stay sound at 8x8/256.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analyze/check.h"
#include "obs/export.h"
#include "sim/chaos_soak.h"
#include "sim/fault_plan.h"

namespace wsn {
namespace {

/// The campaign's oracle findings, "oracle: " prefix stripped, sorted.
std::vector<std::string> oracle_findings(const sim::ChaosCampaignResult& res) {
  static const std::string kPrefix = "oracle: ";
  std::vector<std::string> out;
  for (const std::string& f : res.findings) {
    if (f.rfind(kPrefix, 0) == 0) out.push_back(f.substr(kPrefix.size()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The batch check_* reference implementations over a kept trace, their
/// issues unioned and sorted. check_energy and the ARQ-counter half of
/// check_reliability compare against the campaign's metrics snapshot, which
/// the result does not carry, so they are left out here.
std::vector<std::string> batch_findings(const std::string& trace_jsonl) {
  std::istringstream in(trace_jsonl);
  const std::vector<obs::TraceEvent> events = obs::parse_jsonl(in);
  std::vector<std::string> out;
  for (const obs::analyze::CheckReport& r :
       {obs::analyze::check_trace(events),
        obs::analyze::check_reliability(events),
        obs::analyze::check_failure_detection(events),
        obs::analyze::check_depletion(events),
        obs::analyze::check_stabilization(events),
        obs::analyze::check_membership(events)}) {
    out.insert(out.end(), r.issues.begin(), r.issues.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The live oracle and the batch checkers must reach the same verdict, with
/// the same wording, over the trace the campaign kept.
void expect_oracle_matches_batch(const sim::ChaosCampaignResult& res) {
  ASSERT_FALSE(res.trace_jsonl.empty());
  EXPECT_EQ(oracle_findings(res), batch_findings(res.trace_jsonl))
      << res.topology << " campaign " << res.index << " (seed " << res.seed
      << ")";
}

TEST(ChaosSoak, FullSoakZeroFindings) {
  sim::ChaosSoakConfig cfg;  // 25 campaigns, fixed seed 20260805
  ASSERT_GE(cfg.campaigns, 25u);
  const sim::ChaosSoak soak(cfg);
  const sim::ChaosSoakSummary summary = soak.run();
  EXPECT_EQ(summary.campaigns, cfg.campaigns);
  for (const sim::ChaosCampaignResult& res : summary.results) {
    EXPECT_EQ(res.split_brains, 0u)
        << "campaign " << res.index << " (seed " << res.seed << ")";
    for (const std::string& f : res.findings) {
      ADD_FAILURE() << "campaign " << res.index << " (seed " << res.seed
                    << "): " << f << "\nplan: " << res.plan_json;
    }
  }
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_TRUE(summary.ok());
}

TEST(ChaosSoak, SingleCampaignReplaysByteIdentically) {
  const sim::ChaosSoak soak{sim::ChaosSoakConfig{}};
  const auto first = soak.run_campaign(3, /*keep_trace=*/true);
  const auto second = soak.run_campaign(3, /*keep_trace=*/true);
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.seed, second.seed);
  EXPECT_EQ(first.plan_json, second.plan_json);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same seed + same plan must produce a byte-identical trace";
  // The kernel totals wsn-chaos --profile reports replay exactly too.
  EXPECT_GT(first.sim_events, 0u);
  EXPECT_GT(first.sim_time, 0.0);
  EXPECT_EQ(first.sim_events, second.sim_events);
  EXPECT_EQ(first.sim_time, second.sim_time);
  expect_oracle_matches_batch(first);
}

TEST(ChaosSoak, GeneratedPlansRoundTripThroughJson) {
  const sim::ChaosSoak soak{sim::ChaosSoakConfig{}};
  for (std::size_t k = 0; k < 5; ++k) {
    const auto res = soak.run_campaign(k, /*keep_trace=*/false);
    ASSERT_FALSE(res.plan_json.empty());
    sim::FaultPlan parsed;
    ASSERT_NO_THROW(parsed = sim::FaultPlan::from_json(res.plan_json))
        << "campaign " << k << " plan: " << res.plan_json;
    // Re-serializing the parsed plan reproduces the artifact exactly, so a
    // saved campaign_<k>.plan.json replays the run bit-for-bit.
    EXPECT_EQ(parsed.to_json(), res.plan_json);
  }
}

TEST(ChaosSoak, DepletionSoakZeroFindings) {
  // Energy-exhaustion mode: each campaign gives a few bound leaders finite
  // batteries on top of the generated fault plan. The oracle additionally
  // demands a clean check_depletion pass, a planned handoff strictly before
  // every budgeted leader's battery death, and zero split-brains.
  sim::ChaosSoakConfig cfg;
  cfg.depletion = true;
  cfg.campaigns = 12;  // acceptance floor is >= 10 depletion campaigns
  const sim::ChaosSoak soak(cfg);
  const sim::ChaosSoakSummary summary = soak.run();
  EXPECT_EQ(summary.campaigns, cfg.campaigns);
  std::size_t depletions = 0;
  std::size_t planned = 0;
  for (const sim::ChaosCampaignResult& res : summary.results) {
    depletions += res.depletions;
    planned += res.planned_handoffs;
    EXPECT_EQ(res.split_brains, 0u)
        << "campaign " << res.index << " (seed " << res.seed << ")";
    for (const std::string& f : res.findings) {
      ADD_FAILURE() << "campaign " << res.index << " (seed " << res.seed
                    << "): " << f << "\nplan: " << res.plan_json;
    }
  }
  EXPECT_EQ(summary.failed, 0u);
  // The mode must actually exercise the fault model: batteries ran out and
  // the retiring leaders handed off first.
  EXPECT_GT(depletions, 0u);
  EXPECT_GT(planned, 0u);
}

TEST(ChaosSoak, DepletionCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.depletion = true;
  const sim::ChaosSoak soak(cfg);
  const auto first = soak.run_campaign(1, /*keep_trace=*/true);
  const auto second = soak.run_campaign(1, /*keep_trace=*/true);
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.plan_json, second.plan_json);
  EXPECT_EQ(first.depletions, second.depletions);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "battery exhaustion must stay inside the deterministic event loop";
  expect_oracle_matches_batch(first);
}

TEST(ChaosSoak, DetectionLatencyWithinBound) {
  const sim::ChaosSoak soak{sim::ChaosSoakConfig{}};
  const double bound = soak.detection_bound();
  std::size_t crashes = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const auto res = soak.run_campaign(k, /*keep_trace=*/false);
    crashes += res.leader_crashes;
    if (res.leader_crashes > 0) {
      EXPECT_GE(res.max_detection_latency, 0.0);
      EXPECT_LE(res.max_detection_latency, bound)
          << "campaign " << k << " (seed " << res.seed << ")";
    }
  }
  EXPECT_GT(crashes, 0u)
      << "the first 8 campaigns should include at least one leader crash";
}

// ---- Adversarial state-corruption soak ----------------------------------

TEST(ChaosSoak, CorruptionSoakReconvergesAcrossTopologies) {
  // >= 12 corruption campaigns spanning grid, ring, and mesh: every plan
  // carries only state_corruption strikes, the detector runs with audits
  // on, and the oracle (check_stabilization + end-state agreement + zero
  // split-brain + the analytic re-convergence bound) must hold on all of
  // them.
  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  std::size_t corruptions = 0;
  for (const net::TopologyKind topo : topologies) {
    sim::ChaosSoakConfig cfg;
    cfg.corruption = true;
    cfg.topology = topo;
    cfg.campaigns = 4;
    const sim::ChaosSoak soak(cfg);
    const double bound = 2.5 * cfg.detector.lease_duration +
                         1.5 * cfg.detector.election_timeout +
                         cfg.corruption_audit_period + 10.0;
    for (std::size_t k = 0; k < cfg.campaigns; ++k) {
      const auto res = soak.run_campaign(k, /*keep_trace=*/false);
      EXPECT_EQ(res.topology, net::to_string(topo));
      EXPECT_GT(res.corruptions, 0u);
      corruptions += res.corruptions;
      EXPECT_EQ(res.split_brains, 0u);
      EXPECT_LE(res.max_reconverge_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      for (const std::string& f : res.findings) {
        ADD_FAILURE() << res.topology << " campaign " << k << " (seed "
                      << res.seed << "): " << f << "\nplan: " << res.plan_json;
      }
    }
  }
  EXPECT_GE(corruptions, 12u);
}

TEST(ChaosSoak, CorruptionCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.corruption = true;
  cfg.topology = net::TopologyKind::kRing;
  const sim::ChaosSoak soak(cfg);
  const auto first = soak.run_campaign(4, /*keep_trace=*/true);
  const auto second = soak.run_campaign(4, /*keep_trace=*/true);
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.plan_json, second.plan_json);
  EXPECT_EQ(first.corruptions, second.corruptions);
  EXPECT_EQ(first.max_reconverge_latency, second.max_reconverge_latency);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "corruption campaigns must replay byte-for-byte";
  expect_oracle_matches_batch(first);
}

TEST(ChaosSoak, CorruptionPlansCarryOnlyCorruptionEvents) {
  sim::ChaosSoakConfig cfg;
  cfg.corruption = true;
  cfg.topology = net::TopologyKind::kMesh;
  const sim::ChaosSoak soak(cfg);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto res = soak.run_campaign(k, /*keep_trace=*/false);
    const sim::FaultPlan plan = sim::FaultPlan::from_json(res.plan_json);
    ASSERT_FALSE(plan.events.empty());
    for (const sim::FaultEvent& ev : plan.events) {
      EXPECT_EQ(ev.kind, sim::FaultKind::kStateCorruption);
      EXPECT_GE(ev.at, 0.0);
    }
    EXPECT_EQ(plan.events.size(), res.corruptions);
  }
}

// ---- Self-healing membership soak ---------------------------------------

TEST(ChaosSoak, MembershipSoakHealsAcrossTopologies) {
  // >= 12 membership campaigns spanning grid, ring, and mesh: each plan
  // mixes membership-target corruption strikes (defected beliefs,
  // scrambled rosters) with whole-cell vacancy scenarios. The oracle
  // additionally demands check_membership (zero dark cells, beliefs and
  // rosters inverse-consistent at settle), one adoption per planned
  // vacancy, a proxy re-bind of every vacated cell, and both latencies
  // inside the extended stabilization bound.
  const net::TopologyKind topologies[] = {net::TopologyKind::kGrid,
                                          net::TopologyKind::kRing,
                                          net::TopologyKind::kMesh};
  std::size_t adoptions = 0;
  std::size_t binds = 0;
  for (const net::TopologyKind topo : topologies) {
    sim::ChaosSoakConfig cfg;
    cfg.membership = true;
    cfg.topology = topo;
    cfg.campaigns = 4;
    const sim::ChaosSoak soak(cfg);
    const double bound = 2.5 * cfg.detector.lease_duration +
                         1.5 * cfg.detector.election_timeout +
                         2.0 * cfg.membership_audit_period + 10.0;
    for (std::size_t k = 0; k < cfg.campaigns; ++k) {
      const auto res = soak.run_campaign(k, /*keep_trace=*/false);
      EXPECT_EQ(res.topology, net::to_string(topo));
      EXPECT_GT(res.corruptions, 0u);
      EXPECT_EQ(res.split_brains, 0u);
      adoptions += res.adoptions;
      binds += res.adopt_binds;
      EXPECT_LE(res.max_adoption_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      EXPECT_LE(res.max_reconverge_latency, bound)
          << res.topology << " campaign " << k << " (seed " << res.seed
          << ")";
      for (const std::string& f : res.findings) {
        ADD_FAILURE() << res.topology << " campaign " << k << " (seed "
                      << res.seed << "): " << f << "\nplan: " << res.plan_json;
      }
    }
  }
  // The mode must actually exercise the fault model: orphans were adopted
  // and every vacated cell was re-bound to a proxy leader.
  EXPECT_GE(adoptions, 10u);
  EXPECT_GE(binds, adoptions);
}

TEST(ChaosSoak, MembershipCampaignReplaysByteIdentically) {
  sim::ChaosSoakConfig cfg;
  cfg.membership = true;
  cfg.topology = net::TopologyKind::kMesh;
  const sim::ChaosSoak soak(cfg);
  const auto first = soak.run_campaign(2, /*keep_trace=*/true);
  const auto second = soak.run_campaign(2, /*keep_trace=*/true);
  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.plan_json, second.plan_json);
  EXPECT_EQ(first.corruptions, second.corruptions);
  EXPECT_EQ(first.adoptions, second.adoptions);
  EXPECT_EQ(first.adopt_binds, second.adopt_binds);
  EXPECT_EQ(first.max_adoption_latency, second.max_adoption_latency);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "membership campaigns must replay byte-for-byte";
  expect_oracle_matches_batch(first);
}

TEST(ChaosSoak, MembershipPlansMixStrikesAndVacancies) {
  sim::ChaosSoakConfig cfg;
  cfg.membership = true;
  const sim::ChaosSoak soak(cfg);
  for (std::size_t k = 0; k < 3; ++k) {
    const auto res = soak.run_campaign(k, /*keep_trace=*/false);
    const sim::FaultPlan plan = sim::FaultPlan::from_json(res.plan_json);
    ASSERT_FALSE(plan.events.empty());
    std::size_t strikes = 0;
    std::size_t crashes = 0;
    for (const sim::FaultEvent& ev : plan.events) {
      if (ev.kind == sim::FaultKind::kStateCorruption) {
        EXPECT_EQ(ev.target, sim::CorruptionTarget::kMembership);
        ++strikes;
      } else {
        // Vacancy scenarios are expressed as simultaneous member crashes.
        EXPECT_EQ(ev.kind, sim::FaultKind::kCrash);
        ++crashes;
      }
    }
    EXPECT_EQ(strikes, res.corruptions);
    EXPECT_GT(crashes, 0u) << "campaign " << k
                           << " staged no vacancy: " << res.plan_json;
  }
}

TEST(ChaosSoak, OracleMatchesBatchOnFailingInputs) {
  // The two inputs the soak is known to fail on (CHANGES.md, FOUND): the
  // live oracle must judge them exactly as the batch checkers do.
  sim::ChaosSoakConfig membership;
  membership.membership = true;
  membership.topology = net::TopologyKind::kRing;
  membership.seed = 437929382;
  sim::ChaosSoakConfig depletion;
  depletion.depletion = true;
  depletion.seed = 883585205;
  for (const sim::ChaosSoakConfig& cfg : {membership, depletion}) {
    expect_oracle_matches_batch(
        sim::ChaosSoak(cfg).run_campaign(0, /*keep_trace=*/true));
  }
}

// ---- Oracle soundness at scale -------------------------------------------

TEST(ChaosSoak, FullOracleHoldsAt8x8With256Nodes) {
  // One campaign per mode at 8x8/256: the size where a bounded capture of
  // the trace could not hold the run. The live oracle must judge every
  // event, so each campaign passes and its event count is the whole run.
  std::size_t max_events = 0;
  for (int mode = 0; mode < 4; ++mode) {
    sim::ChaosSoakConfig cfg;
    cfg.grid_side = 8;
    cfg.node_count = 256;
    cfg.depletion = mode == 1;
    cfg.corruption = mode == 2;
    cfg.membership = mode == 3;
    const auto res = sim::ChaosSoak(cfg).run_campaign(0, /*keep_trace=*/false);
    EXPECT_TRUE(res.trace_jsonl.empty());
    max_events = std::max(max_events, res.events);
    for (const std::string& f : res.findings) {
      ADD_FAILURE() << "mode " << mode << " (seed " << res.seed << "): " << f
                    << "\nplan: " << res.plan_json;
    }
  }
  EXPECT_GT(max_events, std::size_t{1} << 19);
}

}  // namespace
}  // namespace wsn
