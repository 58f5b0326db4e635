// perfbench: the whole-program benchmark program.
//
// One process runs one workload for a fixed measuring window, in whole
// rounds of the same operations, and prints one JSON result line last:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --plans <dir> [--spans-out <path>]
//
// Workloads (README.md gives their inputs and the metric map):
//   campaign_replay   the five canned fault plans on 8x8/200-node stacks
//                     with ARQ and the failure detector, tracing off
//   chaos_soak        ChaosSoak campaigns at 4x4/60: default and corruption
//                     modes on seed-drawn seeds, depletion and membership
//                     modes on fixed seeds, over grid/ring/mesh
//   chaos_soak_scale  ChaosSoak campaigns, one per mode, 8x8/256
//   topo_query        the topographic query over the virtual 256x256 grid
//                     and an emulated 32x32-cell physical deployment
//
// --trace 0 reports the end-to-end metrics with every probe off. --trace 1
// spends the first half of the window on plain rounds as the reference,
// then records the benchmark's own spans around each layer call with
// obs::SimProfiler armed, and reports the per-layer metrics plus the traced
// rounds' overhead against the plain ones.
// Deployments are built from the layers' public calls (deploy, graph, cell
// map, emulation, binding, overlay) so that each set-up layer is timed.
#include <sys/resource.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/analytical.h"
#include "analysis/metrics.h"
#include "app/field.h"
#include "app/labeling.h"
#include "app/topographic.h"
#include "core/primitives.h"
#include "core/virtual_network.h"
#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/failure_detector.h"
#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "net/link_layer.h"
#include "net/network_graph.h"
#include "net/reliable_link.h"
#include "net/topology_factory.h"
#include "obs/analyze/check.h"
#include "obs/analyze/incremental.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "sim/chaos_soak.h"
#include "sim/depletion_monitor.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"

namespace {

using namespace wsn;
using Clock = std::chrono::steady_clock;

// Initialised before main() runs: the cold set-up is timed from here unless
// the launcher passes the time it started the process (--launched-at).
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Deterministic 64-bit mix (splitmix64), for deriving input seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Host-speed ruler: a fixed piece of work that shares no code or memory with
// the program. It runs a small event loop the way the simulator does: a
// binary heap of timed events, random reads and writes over a 4 MiB table
// (past the per-core cache), variable-length writes into a scratch arena and
// an open-addressing hash table. All of it lives in one block allocated on
// first use, and each reading first flushes the block from every cache
// level, so the reading starts cold whatever the program left in the caches
// or its heap. Its host time tracks how fast this shared machine runs such
// code at the moment: other tenants slow it, and the program, by up to a
// third for tens of seconds at a time.

/// A typical ruler reading on a quiet 4-core 2.1 GHz x86-64 VM
/// (RelWithDebInfo build): the reference speed.
constexpr double kRulerReferenceS = 0.02;
/// How the program's host time moves with the ruler's: as its power 0.7.
/// The ruler starts cold, so memory contention slows it more than the
/// program. Fitted (log-log least squares) on 16 runs of campaign_replay
/// and chaos_soak, whose raw times spread 0.24 and 0.18 (quartile distance
/// over median) while the ruler read 22 to 39 ms.
constexpr double kRulerElasticity = 0.7;

/// The factor that takes a host time measured while the ruler read
/// `ruler_s` to the reference speed.
double to_reference(double ruler_s) {
  return std::pow(kRulerReferenceS / ruler_s, kRulerElasticity);
}

double ruler_s() {
  constexpr std::size_t kTable = std::size_t{1} << 19;  // 4 MiB of u64
  constexpr std::size_t kHash = std::size_t{1} << 14;
  constexpr std::size_t kArena = std::size_t{1} << 20;  // bytes
  constexpr std::size_t kPending = 1024;
  constexpr int kEvents = 120000;
  struct Ev {
    double t;
    std::uint64_t node;
  };
  struct Block {
    std::uint64_t table[kTable];
    std::uint64_t keys[kHash];
    Ev heap[kPending];
    unsigned char arena[kArena];
  };
  static Block* const block = [] {
    auto* b = static_cast<Block*>(std::calloc(1, sizeof(Block)));
    for (std::size_t i = 0; i < kTable; ++i) b->table[i] = mix(i);
    return b;
  }();
  std::uint64_t acc = 0;
  const auto pass = [&acc] {
    Ev* const heap = block->heap;
    const auto later = [](const Ev& a, const Ev& b) { return a.t > b.t; };
    for (std::size_t i = 0; i < kPending; ++i) {
      heap[i] = {static_cast<double>(mix(i) % 1000), i};
    }
    std::make_heap(heap, heap + kPending, later);
    std::memset(block->keys, 0, sizeof block->keys);
    for (int e = 0; e < kEvents; ++e) {
      std::pop_heap(heap, heap + kPending, later);
      Ev& ev = heap[kPending - 1];
      const std::uint64_t h = mix(ev.node ^ acc);
      for (int k = 0; k < 4; ++k) {
        std::uint64_t& cell = block->table[(h >> (k * 13)) % kTable];
        acc += cell;
        cell ^= h;
      }
      const std::size_t bytes = 16 + h % 500;
      std::memset(block->arena + (h >> 24) % (kArena - bytes),
                  static_cast<int>(h), bytes);
      std::size_t b = (h >> 40) % kHash;
      for (int probe = 0; probe < 8 && block->keys[b] != 0 &&
                          block->keys[b] != (h | 1);
           ++probe) {
        b = (b + 1) % kHash;
      }
      block->keys[b] = h | 1;
      ev = {ev.t + static_cast<double>(h % 977) * 1e-3, h % 65536};
      std::push_heap(heap, heap + kPending, later);
    }
  };
#if defined(__x86_64__)
  const auto* bytes = reinterpret_cast<const char*>(block);
  for (std::size_t i = 0; i < sizeof(Block); i += 64) _mm_clflush(bytes + i);
  _mm_mfence();
#endif
  const Clock::time_point t0 = Clock::now();
  pass();
  const double s = seconds_since(t0);
  // Keeps the loop's result live.
  if (acc == 0) std::fprintf(stderr, "perfbench: ruler sum is 0\n");
  return s;
}

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent) around each layer call, recorded only in
// the traced run and written out when the run ends.

struct SpanRecord {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int32_t open(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    SpanRecord& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  /// Median duration in seconds of the spans called `name`; 0 if none.
  double median_s(const char* name) const {
    std::vector<double> d;
    for (const SpanRecord& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        d.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return median(std::move(d));
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             kProcessStart)
            .count());
  }

  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
};

SpanLog& spans() {
  static SpanLog log;
  return log;
}

class Span {
 public:
  explicit Span(const char* name) {
    if (spans().enabled()) id_ = spans().open(name);
  }
  ~Span() {
    if (id_ >= 0) spans().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t id_ = -1;
};

// ---------------------------------------------------------------------------
// Run bookkeeping shared by every workload.

struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::size_t rounds = 0;
  // Every round repeats the same operations. In a --trace 0 run each
  // repeat's host times are taken to the ruler's reference speed by the
  // mean of the ruler readings around it (before the operation and after
  // it); an operation is reported by the median of its repeats. Raw host
  // times are kept too.
  bool use_ruler = false;
  struct OpTimes {
    std::vector<double> total;  // the whole operation, set-up and checks too
    std::vector<double> sim;    // its simulate window
    std::vector<double> raw_total_s;
    std::uint64_t events = 0;
  };
  std::map<std::string, OpTimes> ops;
  std::vector<double> ruler_times_s;
  // Layer counts, summed over every round and reported per round;
  // queue_peak is the largest seen.
  std::uint64_t queue_peak = 0;
  std::uint64_t rounds_closed = 0;
  std::uint64_t arq_sends = 0, arq_retransmits = 0, arq_give_ups = 0,
                arq_delivered = 0, link_frames = 0, link_lost = 0;
  std::uint64_t fd_audits = 0, fd_claims = 0;
  std::uint64_t physical_hops = 0, virtual_hops = 0;
  std::uint64_t trace_events = 0, trace_dropped = 0;
  // Of the last deployment built.
  std::uint64_t topology_broadcasts = 0;
  std::uint64_t graph_edges = 0;
  // Determinism guard: an operation's key -> digest of its first run.
  std::map<std::string, std::string> digests;

  /// A wrong output: the run is not correct.
  void wrong(const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
  }
  /// An operation that did not complete, or broke a property the program
  /// promises for it (its own oracle, a fault-tolerance guarantee).
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  /// Starts an operation: reads the ruler unless the reading after the
  /// previous operation is still adjacent. Returns the operation's start.
  Clock::time_point begin_op() {
    if (use_ruler && !ruler_fresh_) ruler_before_s_ = read_ruler();
    ruler_fresh_ = false;
    return Clock::now();
  }
  /// Records the host times and dispatched events of one operation begun
  /// with begin_op(), and reads the ruler after it.
  void timed_op(const std::string& key, double total_s, double sim_s,
                std::uint64_t events) {
    OpTimes& t = ops[key];
    t.raw_total_s.push_back(total_s);
    t.events = events;
    double scale = 1.0;
    if (use_ruler) {
      const double after_s = read_ruler();
      scale = to_reference(0.5 * (ruler_before_s_ + after_s));
      ruler_before_s_ = after_s;
      ruler_fresh_ = true;
    }
    t.total.push_back(total_s * scale);
    t.sim.push_back(sim_s * scale);
  }
  double read_ruler() {
    ruler_times_s.push_back(ruler_s());
    return ruler_times_s.back();
  }
  /// Compares `digest` with the first digest seen for `key`. A mismatch
  /// means seeded replay broke, and fails the operation: the returned
  /// reason is empty when they match.
  std::string replay_breach(const std::string& key, const std::string& digest) {
    const auto [it, inserted] = digests.emplace(key, digest);
    if (inserted || it->second == digest) return {};
    return "replay differs from its first run (" + it->second + " vs " +
           digest + ")";
  }

 private:
  double ruler_before_s_ = 0.0;
  bool ruler_fresh_ = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

/// Sets the value of the metric called `name`, adding it if absent.
void set_metric(Metrics& metrics, const std::string& name, double value,
                const char* unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

// ---------------------------------------------------------------------------
// Layered set-up of a physical deployment.

struct Shape {
  net::TopologyKind topology = net::TopologyKind::kGrid;
  std::size_t side = 8;
  std::size_t nodes = 200;
  double range = 1.3;
};

struct Deployment {
  explicit Deployment(std::uint64_t seed) : sim(seed) {}

  bool healthy() const {
    return mapper->all_cells_occupied() && mapper->all_cells_connected() &&
           binding.unique_leaders;
  }

  sim::Simulator sim;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<emulation::CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
  emulation::EmulationResult emulation;
  emulation::BindingResult binding;
  std::unique_ptr<emulation::OverlayNetwork> overlay;
  std::unique_ptr<net::ReliableChannel> arq;
};

std::unique_ptr<Deployment> build_deployment(const Shape& shape,
                                             std::uint64_t seed, Run& run) {
  Span total("setup");
  auto d = std::make_unique<Deployment>(seed);
  const net::Rect terrain =
      net::square_terrain(static_cast<double>(shape.side));
  std::vector<net::Point> positions;
  {
    Span s("net.deploy");
    positions = net::deploy_topology(shape.topology, shape.side, shape.nodes,
                                     terrain, d->sim.rng());
  }
  {
    Span s("net.graph");
    d->graph = std::make_unique<net::NetworkGraph>(std::move(positions),
                                                   shape.range);
  }
  {
    Span s("emulation.cell_map");
    d->mapper = std::make_unique<emulation::CellMapper>(*d->graph, terrain,
                                                        shape.side);
  }
  d->ledger = std::make_unique<net::EnergyLedger>(d->graph->node_count());
  d->link = std::make_unique<net::LinkLayer>(
      d->sim, *d->graph, net::RadioModel{shape.range, 1.0, 1.0, 1.0},
      net::CpuModel{}, *d->ledger);
  {
    Span s("emulation.topology_emulation");
    d->emulation = emulation::run_topology_emulation(*d->link, *d->mapper, 0.0);
  }
  {
    Span s("emulation.leader_binding");
    d->binding = emulation::run_leader_binding(*d->link, *d->mapper);
  }
  {
    Span s("emulation.overlay_build");
    d->overlay = std::make_unique<emulation::OverlayNetwork>(
        *d->link, *d->mapper, d->emulation, d->binding);
  }
  run.topology_broadcasts = d->emulation.broadcasts;
  run.graph_edges = d->graph->edge_count();
  return d;
}

/// The number of grid-adjacent cell pairs that share no radio edge. The
/// overlay cannot route between two such cells, yet Deployment::healthy()
/// (like bench::PhysicalStack::healthy()) does not check for them.
std::size_t unlinked_adjacent_cells(const net::NetworkGraph& graph,
                                    const emulation::CellMapper& mapper) {
  const std::size_t side = mapper.grid_side();
  std::vector<bool> east(side * side, false), south(side * side, false);
  for (net::NodeId u = 0; u < graph.node_count(); ++u) {
    const core::GridCoord a = mapper.cell_of(u);
    const std::size_t cell = static_cast<std::size_t>(a.row) * side +
                             static_cast<std::size_t>(a.col);
    for (const net::NodeId v : graph.neighbors(u)) {
      const core::GridCoord b = mapper.cell_of(v);
      if (b.row == a.row && b.col == a.col + 1) east[cell] = true;
      if (b.col == a.col && b.row == a.row + 1) south[cell] = true;
    }
  }
  std::size_t unlinked = 0;
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      unlinked += (c + 1 < side && !east[r * side + c]) ? 1 : 0;
      unlinked += (r + 1 < side && !south[r * side + c]) ? 1 : 0;
    }
  }
  return unlinked;
}

/// The first deployment among the stack seeds derived from (seed, slot)
/// that Deployment::healthy() accepts: every cell occupied and internally
/// connected, one leader per cell. A draw that breaks these preconditions
/// is not an input; ChaosSoak re-draws such stacks the same way. Placements
/// are screened before the emulation runs, so most rejected draws cost no
/// emulation.
std::pair<std::uint64_t, std::unique_ptr<Deployment>> healthy_deployment(
    const Shape& shape, std::uint64_t seed, std::uint64_t slot, Run& run) {
  const net::Rect terrain = net::square_terrain(static_cast<double>(shape.side));
  for (std::uint64_t draw = 0; draw < 64; ++draw) {
    const std::uint64_t stack_seed =
        1 + mix(mix(seed) ^ mix(slot * 1000 + draw)) % 1000000007ULL;
    sim::Rng rng(stack_seed);
    const net::NetworkGraph graph(
        net::deploy_topology(shape.topology, shape.side, shape.nodes, terrain,
                             rng),
        shape.range);
    const emulation::CellMapper mapper(graph, terrain, shape.side);
    if (!mapper.all_cells_occupied() || !mapper.all_cells_connected()) continue;
    std::unique_ptr<Deployment> d = build_deployment(shape, stack_seed, run);
    if (d->healthy()) return {stack_seed, std::move(d)};
  }
  throw std::runtime_error("no healthy deployment in 64 draws");
}

// ---------------------------------------------------------------------------
// Workloads: a cold set-up, then whole rounds of the same operations.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what the rounds need; the process's cold set-up.
  virtual void setup(Run& /*run*/) {}
  /// One whole round of the workload's operations.
  virtual void round(Run& run) = 0;
  /// Traced run only, after the rounds: sets the per-layer metrics that
  /// need extra work.
  virtual void measure_layers(Metrics& /*out*/) {}
};

// ---- campaign_replay ------------------------------------------------------

const char* const kPlanNames[] = {"loss_burst", "region_outage", "depletion",
                                  "corruption", "membership"};
const Shape kCampaignShape{net::TopologyKind::kGrid, 8, 200, 1.3};
constexpr std::size_t kStackSeedsPerPlan = 3;
// depletion.json fails on some stacks: a budgeted leader dies with no
// planned handoff before it (CHANGES.md, FOUND). So it runs on fixed stacks
// rather than seed-drawn ones, and its failed share stays the same on every
// seed: the first healthy draws of seed 0, and the stack the fault was
// first seen on. membership.json also runs on fixed stacks (the next draws
// of seed 0): its campaigns set the process's peak memory, which would
// otherwise follow whichever stacks the seed drew.
constexpr std::uint64_t kFixedStackSeed = 0;
constexpr std::uint64_t kHandofflessStack = 46039273;

struct Plan {
  std::string name;
  sim::FaultPlan plan;
  bool corruption = false;
  bool membership = false;
};

class CampaignReplay : public Workload {
 public:
  CampaignReplay(std::uint64_t seed, std::string plans_dir)
      : seed_(seed), plans_dir_(std::move(plans_dir)) {}

  void setup(Run& run) override {
    for (const char* name : kPlanNames) {
      const std::string path = plans_dir_ + "/" + name + ".json";
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot read fault plan " + path);
      std::ostringstream text;
      text << in.rdbuf();
      Plan p{name, sim::FaultPlan::from_json(text.str())};
      for (const sim::FaultEvent& ev : p.plan.events) {
        if (ev.kind != sim::FaultKind::kStateCorruption) continue;
        p.corruption = true;
        if (ev.target == sim::CorruptionTarget::kMembership) p.membership = true;
      }
      plans_.push_back(std::move(p));
    }
    // Each plan runs on kStackSeedsPerPlan healthy stacks drawn from the
    // seed (depletion and membership: fixed ones); the campaigns rebuild
    // them from these stack seeds.
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      const bool depletion = plans_[i].name == "depletion";
      const bool fixed = depletion || plans_[i].name == "membership";
      for (std::size_t k = 0; k < kStackSeedsPerPlan; ++k) {
        const std::uint64_t slot = i * kStackSeedsPerPlan + k;
        if (depletion && k + 1 == kStackSeedsPerPlan) {
          ops_.emplace_back(i, kHandofflessStack);
          continue;
        }
        ops_.emplace_back(
            i, healthy_deployment(kCampaignShape,
                                  fixed ? kFixedStackSeed : seed_,
                                  depletion ? k : slot, run)
                   .first);
      }
    }
  }

  void round(Run& run) override {
    for (const auto& [plan, stack_seed] : ops_) {
      const std::string key =
          plans_[plan].name + "@" + std::to_string(stack_seed);
      ++run.attempted;
      const Clock::time_point t0 = run.begin_op();
      try {
        const auto [sim_s, events] =
            campaign(plans_[plan], stack_seed, key, run);
        run.timed_op(key, seconds_since(t0), sim_s, events);
      } catch (const std::exception& e) {
        run.fail(key + ": " + e.what());
      }
    }
  }

 private:
  /// One campaign as `quickstart --campaign` replays it, on a fresh stack:
  /// ARQ (3 retries), depletion monitor, failure detector (handoff mark 48,
  /// audits for corruption plans, live membership for membership plans),
  /// two deadline-bounded reduce rounds over all 64 cells, then settle.
  /// Returns the host seconds and events of its simulate window.
  static std::pair<double, std::uint64_t> campaign(const Plan& p,
                                                   std::uint64_t stack_seed,
                                                   const std::string& key,
                                                   Run& run) {
    std::unique_ptr<Deployment> d =
        build_deployment(kCampaignShape, stack_seed, run);
    if (!d->healthy()) throw std::runtime_error("unhealthy deployment");
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t events0 = d->sim.events_processed();

    net::ReliableConfig rcfg;
    rcfg.max_retries = 3;
    d->arq = std::make_unique<net::ReliableChannel>(*d->link, rcfg);
    d->overlay->attach_arq(*d->arq);
    sim::DepletionMonitor monitor(d->sim, *d->link);
    monitor.arm();
    emulation::FailureDetectorConfig fd_cfg;
    fd_cfg.handoff_low_water = 48.0;
    if (p.corruption) fd_cfg.audit_period = 15.0;
    if (p.membership) fd_cfg.membership = true;
    emulation::FailureDetector detector(*d->overlay, fd_cfg);
    sim::FaultInjector injector(d->sim, *d->link, d->mapper.get());
    injector.set_leader_lookup([&d](const core::GridCoord& cell) {
      return d->overlay->bound_node(cell);
    });
    injector.set_corruption_applier(
        [&detector](net::NodeId node, sim::CorruptionTarget target) {
          return detector.inject_corruption(node, target);
        });
    injector.arm(p.plan);
    detector.start();

    const std::vector<core::GridCoord> cells =
        core::GridTopology(kCampaignShape.side).all_coords();
    std::vector<core::PartialResult> results;
    std::vector<core::GridCoord> split, unconverged, violations;
    {
      Span s("sim.campaign");
      d->sim.run_until(d->sim.now() + 0.5);
      const std::vector<double> ones(cells.size(), 1.0);
      for (int r = 0; r < 2; ++r) {
        const double round_start = d->sim.now();
        core::group_reduce_deadline(
            *d->overlay, cells, {0, 0}, ones, core::ReduceOp::kSum, 1.0,
            200.0,
            [&results](const core::PartialResult& pr) {
              results.push_back(pr);
            });
        d->sim.run_until(round_start + 210.0);
      }
      const double settle =
          p.plan.down_horizon() + 100.0 +
          (p.corruption ? detector.stabilization_bound() : 0.0);
      d->sim.run_until(d->sim.now() + settle);
      split = detector.split_brains();
      if (p.corruption) unconverged = detector.unconverged_cells();
      if (p.membership) violations = detector.membership_violations();
      detector.stop();
      d->sim.run();
    }
    const std::uint64_t events = d->sim.events_processed() - events0;
    const double sim_s = seconds_since(t0);
    run.queue_peak =
        std::max<std::uint64_t>(run.queue_peak, d->sim.queue().peak_size());
    run.rounds_closed += results.size();
    const sim::CounterSet& arq = d->arq->counters();
    const sim::CounterSet& link = d->link->counters();
    run.arq_sends += arq.get("arq.send");
    run.arq_retransmits += arq.get("arq.retransmit");
    run.arq_give_ups += arq.get("arq.give_up");
    run.arq_delivered += arq.get("arq.delivered");
    run.link_frames += link.get("link.broadcast") + link.get("link.unicast");
    run.link_lost += link.get("link.lost") + link.get("link.lost_fringe");
    run.fd_audits += detector.counters().get("fd.audit");
    run.fd_claims += detector.claims().size();

    // Correctness: properties the method must have.
    if (results.size() != 2) {
      run.wrong(key + ": " + std::to_string(results.size()) +
                " of 2 reduce rounds closed");
    }
    for (const core::PartialResult& r : results) {
      if (r.value != static_cast<double>(r.contributors.size())) {
        run.wrong(key + ": reduce sum " + std::to_string(r.value) +
                  " from " + std::to_string(r.contributors.size()) +
                  " unit contributions");
      }
      // contributors and missing partition the grid's cells.
      std::set<std::pair<int, int>> covered;
      for (const core::GridCoord& c : r.contributors) {
        covered.insert({c.row, c.col});
      }
      const std::vector<core::GridCoord> missing = r.missing();
      for (const core::GridCoord& c : missing) covered.insert({c.row, c.col});
      bool all_cells = covered.size() == cells.size() &&
                       r.contributors.size() + missing.size() == cells.size();
      for (const core::GridCoord& c : cells) {
        all_cells = all_cells && covered.count({c.row, c.col}) == 1;
      }
      if (!all_cells) {
        run.wrong(key + ": contributors and missing do not partition the " +
                  std::to_string(cells.size()) + " cells");
      }
    }
    // The detector's guarantees; a breach fails the operation.
    std::vector<std::string> breaches;
    if (!split.empty()) {
      breaches.push_back(std::to_string(split.size()) +
                         " split-brain cells after settle");
    }
    if (!unconverged.empty()) {
      breaches.push_back(std::to_string(unconverged.size()) +
                         " unconverged cells after settle");
    }
    if (!violations.empty()) {
      breaches.push_back(std::to_string(violations.size()) +
                         " membership violations after settle");
    }
    for (const sim::DepletionRecord& death : monitor.deaths()) {
      // A handoff needs a successor: another member of the cell that stays
      // connected to the rest of it once the dying node is gone.
      const auto members = d->mapper->members(d->mapper->cell_of(death.node));
      std::vector<net::NodeId> successors;
      for (const net::NodeId m : members) {
        if (m != death.node) successors.push_back(m);
      }
      if (successors.empty() || !d->graph->induced_connected(successors)) {
        continue;
      }
      bool handed_off = false;
      for (const emulation::ClaimRecord& c : detector.claims()) {
        handed_off = handed_off || (c.planned && c.old_leader == death.node &&
                                    c.at < death.at);
      }
      if (!handed_off) {
        breaches.push_back("node " + std::to_string(death.node) +
                           " died with no planned handoff before it");
      }
    }
    std::ostringstream digest;
    digest << "events=" << events << " claims=" << detector.claims().size()
           << " deaths=" << monitor.deaths().size()
           << " retransmits=" << arq.get("arq.retransmit")
           << " give_ups=" << arq.get("arq.give_up");
    for (const core::PartialResult& r : results) {
      digest << " round=" << r.contributors.size() << "@" << r.finished;
    }
    if (std::string r = run.replay_breach(key, digest.str()); !r.empty()) {
      breaches.push_back(std::move(r));
    }
    if (!breaches.empty()) run.fail(key + ": " + breaches.front());
    return {sim_s, events};
  }

  std::uint64_t seed_;
  std::string plans_dir_;
  std::vector<Plan> plans_;
  std::vector<std::pair<std::size_t, std::uint64_t>> ops_;  // plan, stack seed
};

// ---- chaos_soak / chaos_soak_scale -----------------------------------------

/// Span names of the oracle's checks, timed over kept soak traces.
const char* const kCheckSpans[] = {
    "analyze.check_trace",        "analyze.check_energy",
    "analyze.check_reliability",  "analyze.check_failure_detection",
    "analyze.check_stabilization", "analyze.check_membership",
    "analyze.streaming_check"};

struct SoakMode {
  const char* name;
  bool depletion;
  bool corruption;
  bool membership;
};
const SoakMode kDefaultMode{"default", false, false, false};
const SoakMode kDepletionMode{"depletion", true, false, false};
const SoakMode kCorruptionMode{"corruption", false, true, false};
const SoakMode kMembershipMode{"membership", false, false, true};

/// Events a campaign's trace lost to a full capture ring, from its
/// "trace capture overflow: N events lost" finding; 0 without one.
std::uint64_t dropped_events(const sim::ChaosCampaignResult& res) {
  static const std::string kPrefix = "trace capture overflow: ";
  for (const std::string& f : res.findings) {
    if (f.rfind(kPrefix, 0) == 0) {
      return std::strtoull(f.c_str() + kPrefix.size(), nullptr, 10);
    }
  }
  return 0;
}

/// One ChaosSoak campaign: campaign `index` of a soak seeded `seed`.
struct SoakSpec {
  SoakMode mode;
  net::TopologyKind topology;
  std::uint64_t seed;
  std::size_t index;
};

class ChaosSoakWorkload : public Workload {
 public:
  ChaosSoakWorkload(std::size_t side, std::size_t nodes,
                    const std::vector<SoakSpec>& specs) {
    for (const SoakSpec& spec : specs) {
      sim::ChaosSoakConfig cfg;
      cfg.grid_side = side;
      cfg.node_count = nodes;
      cfg.seed = spec.seed;
      cfg.topology = spec.topology;
      cfg.depletion = spec.mode.depletion;
      cfg.corruption = spec.mode.corruption;
      cfg.membership = spec.mode.membership;
      campaigns_.push_back(
          {std::string(spec.mode.name) + "/" + net::to_string(spec.topology),
           spec.mode.name, sim::ChaosSoak(cfg), spec.index});
    }
  }

  void setup(Run& /*run*/) override {
    // The reference capture: the first campaign, with its trace kept.
    const Campaign& c = campaigns_.front();
    reference_ = c.soak.run_campaign(c.index, true);
  }

  void round(Run& run) override {
    // The first campaign keeps its trace: replayed on every round, it must
    // reproduce the set-up's reference capture byte for byte.
    bool keep_trace = true;
    for (const Campaign& c : campaigns_) {
      const std::string key =
          c.label + "#" + std::to_string(c.soak.config().seed + c.index);
      ++run.attempted;
      const Clock::time_point t0 = run.begin_op();
      sim::ChaosCampaignResult res;
      {
        Span s("soak.campaign");
        res = c.soak.run_campaign(c.index, keep_trace);
      }
      const std::uint64_t dropped = dropped_events(res);
      const double op_s = seconds_since(t0);
      run.timed_op(key, op_s, op_s, res.events + dropped);
      run.trace_events += res.events + dropped;
      run.trace_dropped += dropped;
      run.fd_claims += res.claims;
      std::vector<std::string> breaches;
      if (!res.ok()) {
        breaches.push_back(std::to_string(res.findings.size()) +
                           " oracle findings, first: " + res.findings.front());
      }
      if (std::string r = run.replay_breach(
              key, "events=" + std::to_string(res.events) +
                       " dropped=" + std::to_string(dropped) +
                       " claims=" + std::to_string(res.claims) +
                       " findings=" + std::to_string(res.findings.size()));
          !r.empty()) {
        breaches.push_back(std::move(r));
      }
      if (keep_trace && (res.trace_jsonl != reference_.trace_jsonl ||
                         res.plan_json != reference_.plan_json ||
                         res.findings != reference_.findings)) {
        breaches.push_back("trace is not byte-identical to the reference capture");
      }
      if (!breaches.empty()) run.fail(key + ": " + breaches.front());
      keep_trace = false;
    }
  }

  void measure_layers(Metrics& out) override {
    // One kept trace per mode (its first campaign); every check of the
    // oracle is timed on it, batch and streaming.
    const obs::analyze::JsonValue no_snapshot = obs::analyze::parse_json("{}");
    std::set<std::string> modes;
    std::uint64_t audits = 0;
    for (const Campaign& c : campaigns_) {
      if (!modes.insert(c.mode).second) continue;
      std::vector<obs::TraceEvent> events;
      {
        const sim::ChaosCampaignResult res = c.soak.run_campaign(c.index, true);
        std::istringstream in(res.trace_jsonl);
        events = obs::parse_jsonl(in);
      }
      for (const obs::TraceEvent& ev : events) {
        if (ev.name == "fd.audit") ++audits;
      }
      {
        Span s(kCheckSpans[0]);
        obs::analyze::check_trace(events);
      }
      {
        Span s(kCheckSpans[1]);
        obs::analyze::check_energy(events, no_snapshot);
      }
      {
        Span s(kCheckSpans[2]);
        obs::analyze::check_reliability(events);
      }
      {
        Span s(kCheckSpans[3]);
        obs::analyze::check_failure_detection(events);
      }
      {
        Span s(kCheckSpans[4]);
        obs::analyze::check_stabilization(events);
      }
      {
        Span s(kCheckSpans[5]);
        obs::analyze::check_membership(events);
      }
      {
        Span s(kCheckSpans[6]);
        obs::analyze::StreamingChecker checker;
        for (const obs::TraceEvent& ev : events) checker.feed(ev);
        checker.finish();
      }
    }
    for (const char* check : kCheckSpans) {
      set_metric(out, std::string(check) + "_s", spans().median_s(check), "s");
    }
    set_metric(out, "emulation.fd_audits",
               static_cast<double>(audits) / static_cast<double>(modes.size()),
               "count");
  }

 private:
  struct Campaign {
    std::string label;  // mode/topology
    std::string mode;
    sim::ChaosSoak soak;
    std::size_t index;
  };

  std::vector<Campaign> campaigns_;
  sim::ChaosCampaignResult reference_;  // the first campaign, from set-up
};

// ---- topo_query ------------------------------------------------------------

constexpr std::size_t kVirtualSide = 256;
const Shape kQueryShape{net::TopologyKind::kGrid, 32, 32 * 32 * 8, 1.3};
// The deployment is fixed, so set-up does the same work on every seed:
// the first healthy draw of this seed.
constexpr std::uint64_t kQueryStackSeed = 1;
// A deployment that Deployment::healthy() accepts although 9 pairs of
// adjacent cells share no radio edge (CHANGES.md, FOUND): the query over
// it fails on every run.
const Shape kUnlinkedShape{net::TopologyKind::kGrid, 16, 1024, 1.3};
constexpr std::uint64_t kUnlinkedStackSeed = 1;

struct Field {
  std::string name;
  app::FeatureGrid fine;    // kVirtualSide^2 samples, for the virtual grid
  app::FeatureGrid coarse;  // one sample per physical cell
};

using RegionKey = std::tuple<std::uint64_t, std::int32_t, std::int32_t,
                             std::int32_t, std::int32_t>;

std::vector<RegionKey> region_keys(const std::vector<app::RegionInfo>& rs) {
  std::vector<RegionKey> keys;
  for (const app::RegionInfo& r : rs) {
    keys.emplace_back(r.area, r.bounds.row_min, r.bounds.col_min,
                      r.bounds.row_max, r.bounds.col_max);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<RegionKey> region_keys(const app::Labeling& l) {
  std::vector<RegionKey> keys;
  for (const app::Region& r : l.regions) {
    keys.emplace_back(r.area, r.bounds.row_min, r.bounds.col_min,
                      r.bounds.row_max, r.bounds.col_max);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

class TopoQuery : public Workload {
 public:
  explicit TopoQuery(std::uint64_t seed) : seed_(seed) {}

  void setup(Run& run) override {
    // Built first and without spans, so that the set-up layers' metrics
    // describe the query deployment alone.
    const bool traced = spans().enabled();
    spans().set_enabled(false);
    unlinked_ = build_deployment(kUnlinkedShape, kUnlinkedStackSeed, run);
    spans().set_enabled(traced);
    physical_ = healthy_deployment(kQueryShape, kQueryStackSeed, 0, run).second;
    for (const Deployment* d : {physical_.get(), unlinked_.get()}) {
      std::fprintf(stderr,
                   "perfbench: %zux%zu-cell deployment: healthy %d, %zu "
                   "adjacent cell pairs without a radio edge\n",
                   d->mapper->grid_side(), d->mapper->grid_side(),
                   d->healthy() ? 1 : 0,
                   unlinked_adjacent_cells(*d->graph, *d->mapper));
    }
    predicted_ =
        analysis::predict_quadtree(kVirtualSide, core::uniform_cost_model());
    const std::size_t coarse = kQueryShape.side;
    sim::Rng rng(mix(seed_ ^ 0x70706f));
    fields_.push_back({"full", app::full_grid(kVirtualSide),
                       app::full_grid(coarse)});
    const app::ScalarField noise = app::value_noise_field(mix(seed_ + 1));
    fields_.push_back({"value_noise",
                       app::threshold_sample(noise, kVirtualSide, 0.5),
                       app::threshold_sample(noise, coarse, 0.5)});
    // Twelve Gaussian spots cut high enough that they stay apart.
    const app::ScalarField spots = app::hotspot_field(12, rng);
    fields_.push_back({"hot_spots",
                       app::threshold_sample(spots, kVirtualSide, 1.0),
                       app::threshold_sample(spots, coarse, 1.0)});
    app::FeatureGrid fine = app::random_grid(kVirtualSide, 0.45, rng);
    fields_.push_back({"fragmented", std::move(fine),
                       app::random_grid(coarse, 0.45, rng)});
  }

  void round(Run& run) override {
    for (const Field& f : fields_) {
      ++run.attempted;
      const Clock::time_point t0 = run.begin_op();
      try {
        const auto [sim_s, events] = query(f, run);
        run.timed_op(f.name, seconds_since(t0), sim_s, events);
      } catch (const std::exception& e) {
        run.fail(f.name + ": " + e.what());
      }
    }
    // The full field over the deployment with unlinked adjacent cells. It
    // cannot route between those cells, so the query fails on every round.
    ++run.attempted;
    try {
      const app::FeatureGrid full = app::full_grid(kUnlinkedShape.side);
      const app::TopographicOutcome out =
          app::run_topographic_query(*unlinked_->overlay, full);
      if (region_keys(out.regions) != region_keys(app::label_regions(full))) {
        run.wrong("full@unlinked: regions differ from label_regions");
      }
    } catch (const std::exception& e) {
      run.fail(std::string("full@unlinked: ") + e.what());
    }
  }

 private:
  /// One field through both fabrics, checked against the reference
  /// labeling and, on the virtual grid, the closed-form cost.
  /// Returns the host seconds and events of the two queries.
  std::pair<double, std::uint64_t> query(const Field& f, Run& run) {
    sim::Simulator vsim(seed_);
    core::VirtualNetwork vnet(vsim, core::GridTopology(kVirtualSide),
                              core::uniform_cost_model());
    const Clock::time_point t0 = Clock::now();
    app::TopographicOutcome virt;
    {
      Span s("app.query_virtual");
      virt = app::run_topographic_query(vnet, f.fine);
    }
    emulation::OverlayNetwork& overlay = *physical_->overlay;
    const std::uint64_t pevents0 = physical_->sim.events_processed();
    const std::uint64_t phops0 = overlay.physical_hops();
    const std::uint64_t vhops0 = overlay.virtual_hops();
    const std::uint64_t failed0 = overlay.failed_sends();
    app::TopographicOutcome phys;
    {
      Span s("app.query_physical");
      phys = app::run_topographic_query(overlay, f.coarse);
    }
    const std::uint64_t pevents = physical_->sim.events_processed() - pevents0;
    const double sim_s = seconds_since(t0);
    const std::uint64_t events = vsim.events_processed() + pevents;
    run.queue_peak = std::max<std::uint64_t>(
        {run.queue_peak, vsim.queue().peak_size(),
         physical_->sim.queue().peak_size()});
    run.rounds_closed += (virt.round.finished ? 1 : 0) +
                         (phys.round.finished ? 1 : 0);
    run.physical_hops += overlay.physical_hops() - phops0;
    run.virtual_hops += overlay.virtual_hops() - vhops0;

    if (virt.round.messages_sent != predicted_.messages ||
        vnet.total_hops() != predicted_.total_hops ||
        virt.round.finished_at != predicted_.latency ||
        analysis::energy_report(vnet.ledger()).total !=
            predicted_.total_energy) {
      run.wrong(f.name + ": virtual cost differs from predict_quadtree");
    }
    std::vector<RegionKey> fine_ref, coarse_ref;
    {
      Span s("app.reference_label");
      fine_ref = region_keys(app::label_regions(f.fine));
      coarse_ref = region_keys(app::label_regions(f.coarse));
    }
    if (region_keys(virt.regions) != fine_ref) {
      run.wrong(f.name + ": virtual regions differ from label_regions");
    }
    if (region_keys(phys.regions) != coarse_ref) {
      run.wrong(f.name + ": physical regions differ from label_regions");
    }
    if (overlay.failed_sends() != failed0) {
      run.wrong(f.name + ": overlay dropped sends");
    }
    const std::string breach = run.replay_breach(
        f.name, "virtual_events=" + std::to_string(vsim.events_processed()) +
                    " physical_events=" + std::to_string(pevents) +
                    " messages=" + std::to_string(phys.round.messages_sent) +
                    " regions=" + std::to_string(virt.regions.size()) + "/" +
                    std::to_string(phys.regions.size()));
    if (!breach.empty()) throw std::runtime_error(breach);
    return {sim_s, events};
  }

  std::uint64_t seed_;
  std::unique_ptr<Deployment> physical_;
  std::unique_ptr<Deployment> unlinked_;
  analysis::QuadTreePrediction predicted_;
  std::vector<Field> fields_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string plans;
  std::string spans_out;
  // steady_clock (CLOCK_MONOTONIC) nanoseconds at which the launcher
  // started this process; 0 if not given.
  std::int64_t launched_at_ns = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--plans") {
      a.plans = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else if (flag == "--launched-at") {
      a.launched_at_ns = std::strtoll(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  using net::TopologyKind;
  if (a.workload == "campaign_replay") {
    return std::make_unique<CampaignReplay>(a.seed, a.plans);
  }
  if (a.workload == "chaos_soak") {
    // Default and corruption modes on seeds drawn from --seed; over 100
    // seeds they failed none of 1200 campaigns.
    const std::uint64_t base = 20260805 + mix(a.seed) % 1000000007ULL;
    std::vector<SoakSpec> specs;
    std::size_t index = 0;
    for (const SoakMode& mode : {kDefaultMode, kCorruptionMode}) {
      for (const TopologyKind topology :
           {TopologyKind::kGrid, TopologyKind::kRing, TopologyKind::kMesh}) {
        for (int k = 0; k < 2; ++k) specs.push_back({mode, topology, base, index++});
      }
    }
    // Depletion and membership campaigns fail the oracle on some seeds
    // (CHANGES.md, FOUND), so they run on fixed seeds: the soak's default
    // seed and the two seeds the faults were first seen on, which fail on
    // every run.
    const std::uint64_t fixed = sim::ChaosSoakConfig{}.seed;
    specs.push_back({kDepletionMode, TopologyKind::kGrid, 883585205, 0});
    specs.push_back({kDepletionMode, TopologyKind::kRing, fixed, 0});
    specs.push_back({kDepletionMode, TopologyKind::kMesh, fixed, 0});
    specs.push_back({kMembershipMode, TopologyKind::kGrid, fixed, 0});
    specs.push_back({kMembershipMode, TopologyKind::kRing, 437929382, 0});
    specs.push_back({kMembershipMode, TopologyKind::kMesh, fixed, 0});
    return std::make_unique<ChaosSoakWorkload>(4, 60, specs);
  }
  if (a.workload == "chaos_soak_scale") {
    // Fixed inputs: the capture overflow this size hits fails every
    // campaign, so the seed must not choose which campaigns run.
    const std::uint64_t fixed = sim::ChaosSoakConfig{}.seed;
    std::vector<SoakSpec> specs;
    std::size_t index = 0;
    for (const SoakMode& mode :
         {kDefaultMode, kDepletionMode, kCorruptionMode, kMembershipMode}) {
      specs.push_back({mode, TopologyKind::kGrid, fixed, index++});
    }
    return std::make_unique<ChaosSoakWorkload>(8, 256, specs);
  }
  if (a.workload == "topo_query") return std::make_unique<TopoQuery>(a.seed);
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(const Run& run, const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += run.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.attempted);
  line += ", \"failed\": " + std::to_string(run.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Per-layer metrics of a traced run. Counts are per round; layers a
/// workload does not exercise read 0 (README.md lists which are live).
void layer_metrics(const Run& run, std::size_t traced_rounds, double overhead,
                   Metrics& out) {
  const obs::SimProfiler& prof = obs::profiler();
  const double rounds = static_cast<double>(std::max<std::size_t>(run.rounds, 1));
  const obs::ProfBucket& dispatch = prof.bucket(obs::ProfCat::kDispatch);
  const double events = static_cast<double>(std::max<std::uint64_t>(dispatch.count, 1));
  const obs::AllocStats allocs = prof.allocs();
  const SpanLog& log = spans();
  const auto per_round = [rounds](std::uint64_t v) {
    return static_cast<double>(v) / rounds;
  };
  out.push_back({"sim.events", static_cast<double>(dispatch.count) /
                                   static_cast<double>(traced_rounds),
                 "count"});
  out.push_back({"sim.ns_per_event", static_cast<double>(dispatch.total_ns) / events, "ns"});
  out.push_back({"sim.allocs_per_event", static_cast<double>(allocs.count) / events, "count"});
  out.push_back({"sim.alloc_bytes_per_event", static_cast<double>(allocs.bytes) / events, "B"});
  out.push_back({"sim.queue_peak", static_cast<double>(run.queue_peak), "count"});
  out.push_back({"net.deploy_s", log.median_s("net.deploy"), "s"});
  out.push_back({"net.graph_s", log.median_s("net.graph"), "s"});
  out.push_back({"net.graph_edges", static_cast<double>(run.graph_edges), "count"});
  out.push_back({"net.arq_sends", per_round(run.arq_sends), "count"});
  out.push_back({"net.arq_retransmits", per_round(run.arq_retransmits), "count"});
  out.push_back({"net.arq_give_ups", per_round(run.arq_give_ups), "count"});
  out.push_back({"net.arq_delivered_per_send",
                 run.arq_sends == 0 ? 0.0
                                    : static_cast<double>(run.arq_delivered) /
                                          static_cast<double>(run.arq_sends),
                 "ratio"});
  out.push_back({"net.link_frames", per_round(run.link_frames), "count"});
  out.push_back({"net.link_lost", per_round(run.link_lost), "count"});
  out.push_back({"emulation.cell_map_s", log.median_s("emulation.cell_map"), "s"});
  out.push_back({"emulation.topology_emulation_s",
                 log.median_s("emulation.topology_emulation"), "s"});
  out.push_back({"emulation.topology_broadcasts",
                 static_cast<double>(run.topology_broadcasts), "count"});
  out.push_back({"emulation.leader_binding_s",
                 log.median_s("emulation.leader_binding"), "s"});
  out.push_back({"emulation.overlay_build_s",
                 log.median_s("emulation.overlay_build"), "s"});
  out.push_back({"emulation.stretch",
                 run.virtual_hops == 0
                     ? 0.0
                     : static_cast<double>(run.physical_hops) /
                           static_cast<double>(run.virtual_hops),
                 "ratio"});
  out.push_back({"emulation.fd_audits", per_round(run.fd_audits), "count"});
  out.push_back({"emulation.fd_claims", per_round(run.fd_claims), "count"});
  out.push_back({"app.query_virtual_s", log.median_s("app.query_virtual"), "s"});
  out.push_back({"app.query_physical_s", log.median_s("app.query_physical"), "s"});
  out.push_back({"app.reference_label_s", log.median_s("app.reference_label"), "s"});
  out.push_back({"core.reduce_rounds_closed", per_round(run.rounds_closed), "count"});
  out.push_back({"obs.trace_events", per_round(run.trace_events), "count"});
  out.push_back({"obs.trace_dropped", per_round(run.trace_dropped), "count"});
  double self_ns = 0.0;
  for (std::size_t c = 0; c < obs::kProfCatCount; ++c) {
    const auto cat = static_cast<obs::ProfCat>(c);
    const obs::ProfBucket& b = prof.bucket(cat);
    self_ns += static_cast<double>(b.self_ns);
    out.push_back({std::string("prof.") + obs::prof_cat_name(cat) +
                       ".self_ns_per_event",
                   static_cast<double>(b.self_ns) / events, "ns"});
  }
  const double host_ns = static_cast<double>(std::max<std::uint64_t>(prof.elapsed_ns(), 1));
  out.push_back({"prof.uninstrumented_share", 1.0 - self_ns / host_ns, "ratio"});
  out.push_back({"trace.overhead_share", overhead, "ratio"});
  for (const char* check : kCheckSpans) {
    out.push_back({std::string(check) + "_s", log.median_s(check), "s"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--plans <dir>] [--spans-out <path>] "
                 "[--launched-at <ns>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    Run run;
    run.use_ruler = !args.trace;
    spans().set_enabled(args.trace);
    workload->setup(run);
    // Cold set-up: from the process's launch (or, failing that, its static
    // initialisation) to the end of the workload's set-up. The launch time
    // is only trusted if it precedes static initialisation.
    const Clock::time_point launched{std::chrono::nanoseconds(args.launched_at_ns)};
    const bool have_launch = args.launched_at_ns > 0 && launched <= kProcessStart &&
                             kProcessStart - launched < std::chrono::seconds(10);
    const double raw_setup_s =
        seconds_since(have_launch ? launched : kProcessStart);
    // At the ruler's reference speed, by the median of three readings taken
    // right after it.
    double setup_s = raw_setup_s;
    if (run.use_ruler) {
      setup_s *= to_reference(
          median({run.read_ruler(), run.read_ruler(), run.read_ruler()}));
    }

    // Whole rounds until the window is spent. A traced run spends its first
    // half on plain rounds, the reference for the tracing overhead, and the
    // second half with spans on and the profiler armed.
    const Clock::time_point measure_start = Clock::now();
    std::vector<double> plain_s, traced_s;
    const auto rounds_until = [&](double until_s, std::vector<double>& out) {
      do {
        const Clock::time_point t0 = Clock::now();
        workload->round(run);
        out.push_back(seconds_since(t0));
        ++run.rounds;
        std::fprintf(stderr, "perfbench: round %zu: %.3f s\n", run.rounds,
                     out.back());
      } while (seconds_since(measure_start) < until_s);
    };
    Metrics metrics;
    if (args.trace) {
      spans().set_enabled(false);
      rounds_until(0.5 * args.seconds, plain_s);
      spans().set_enabled(true);
      obs::profiler().arm();
      rounds_until(args.seconds, traced_s);
      obs::profiler().disarm();
      const double overhead = *std::min_element(traced_s.begin(), traced_s.end()) /
                                  *std::min_element(plain_s.begin(), plain_s.end()) -
                              1.0;
      layer_metrics(run, traced_s.size(), overhead, metrics);
      workload->measure_layers(metrics);
      if (!args.spans_out.empty() && !spans().write_json(args.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     args.spans_out.c_str());
      }
    } else {
      rounds_until(args.seconds, plain_s);
      // Host times at the ruler's reference speed: each operation by the
      // median over its repeats.
      double wall_s = 0.0, sim_s = 0.0, events = 0.0, raw_wall_s = 0.0;
      std::vector<double> op_s;
      for (const auto& [key, t] : run.ops) {
        op_s.push_back(median(t.total));
        wall_s += op_s.back();
        sim_s += median(t.sim);
        events += static_cast<double>(t.events);
        raw_wall_s += median(t.raw_total_s);
      }
      metrics.push_back({"wall_ref_s", wall_s, "s"});
      metrics.push_back({"setup_s", setup_s, "s"});
      metrics.push_back({"op_median_ref_s", median(op_s), "s"});
      metrics.push_back({"events_per_ref_s", events / sim_s, "1/s"});
      metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
      std::fprintf(stderr,
                   "perfbench: raw host seconds: set-up %.4f, round %.4f; "
                   "%zu ruler readings of median %.2f ms\n",
                   raw_setup_s, raw_wall_s, run.ruler_times_s.size(),
                   1e3 * median(run.ruler_times_s));
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu rounds, %llu ops, %llu failed\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), run.rounds,
                 static_cast<unsigned long long>(run.attempted),
                 static_cast<unsigned long long>(run.failed));
    for (const auto& [key, digest] : run.digests) {
      std::fprintf(stderr, "perfbench: replay %s %s\n", key.c_str(),
                   digest.c_str());
    }
    print_result(run, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
