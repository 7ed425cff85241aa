#ifndef ESDB_SIM_CLUSTER_SIM_H_
#define ESDB_SIM_CLUSTER_SIM_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "balancer/load_balancer.h"
#include "balancer/monitor.h"
#include "balancer/shard_heat.h"
#include "cluster/esdb.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/thread_pool.h"
#include "consensus/protocol.h"
#include "replication/replication.h"
#include "routing/router.h"
#include "workload/generator.h"

namespace esdb {

// Virtual-time simulator of the full ESDB cluster (the paper's
// laboratory setup: 8 worker nodes, 512 shards, Zipf write workloads).
// Write throughput, delay, per-node CPU and shard-size distributions
// in Figures 10-15 and 19 are resource-contention phenomena, so the
// simulator models exactly that: each node has a CPU budget per tick;
// writes queue per node; replicas charge their node's budget; the
// monitor/balancer/consensus control loop runs on the same virtual
// clock. No real indexing happens here — the real engine lives in
// cluster/esdb.h and is measured by the query benches.
class ClusterSim {
 public:
  struct Options {
    uint32_t num_nodes = 8;
    uint32_t num_shards = 512;
    // Abstract work units per node per second. One doc indexed on a
    // primary costs write_cost units; the replica charges its own
    // node replica_cost units (== write_cost under logical
    // replication, lower under physical replication).
    double node_capacity = 27000;
    double write_cost = 1.0;
    double replica_cost = 0.55;  // physical replication (Section 5.2)
    ReplicationMode replication = ReplicationMode::kPhysical;

    Micros tick = 100 * kMicrosPerMilli;
    double generate_rate = 160000;  // docs/sec offered load

    RoutingKind routing = RoutingKind::kDynamic;
    uint32_t double_hash_offset = 8;  // paper: tenants spread over 8

    // Write-client behaviour (Section 3.1). Workers accept at most
    // client_queue_limit_seconds worth of queued work; beyond that the
    // client stops submitting. Without hotspot isolation (plain
    // transport clients) ONE overloaded worker head-of-line blocks the
    // whole client — the failure mode that motivates ESDB's write
    // clients. With hotspot isolation only writes destined to the
    // overloaded worker wait; everything else keeps flowing.
    double client_queue_limit_seconds = 1.0;
    bool hotspot_isolation = false;

    WorkloadGenerator::Options workload;

    // Live shard migration (DESIGN.md §13), modeled at sim fidelity:
    // the bulk copy and dual-write mirroring are pure-overhead work
    // units charged to the target node's CPU budget (they complete no
    // client writes), and the cutover atomically flips the shard's
    // placement entry. Decisions come from the same ShardHeatTracker/
    // MigrationPlanner the engine uses.
    struct MigrationOptions {
      bool enabled = false;
      // Planner cadence (also the heat decay boundary).
      Micros check_interval = 2 * kMicrosPerSecond;
      double imbalance_ratio = 1.5;
      double min_node_score = 1000;
      uint32_t max_concurrent = 2;
      // Bulk copy: a shard of D routed docs costs D * copy_cost units
      // shipped at copy_rate units/sec per migration.
      double copy_cost = 0.05;
      double copy_rate = 20000;
      // Dual-write: each mirrored doc charges the target this much.
      double dual_write_cost = 0.25;
      // How long dual-write runs before the cutover flips placement.
      Micros dual_write_duration = 1 * kMicrosPerSecond;
    };
    MigrationOptions migration;

    // Tenant churn schedule: every churn_interval of virtual time the
    // hot tenant set shifts by churn_shift (0 = off) — the
    // cluster-scale scenario suite's "tenants come and go" knob.
    Micros churn_interval = 0;
    uint64_t churn_shift = 0;

    // Dynamic load-balancing control loop.
    Micros monitor_window = 1 * kMicrosPerSecond;
    LoadBalancer::Options balancer;
    ConsensusMaster::Options consensus;  // interval T
    SimNetwork::Options network;

    // Timeline sampling period for the time-series figures (14, 19).
    Micros sample_period = 1 * kMicrosPerSecond;

    // Sim workers: 0 = each tick processes nodes serially (the
    // historical behavior); N > 0 = node ticks run as tasks on an
    // N-thread pool with a barrier before the control loop. Node
    // ticks are independent (each drains its own queue and writes a
    // private scratch; completions merge serially in node order
    // afterwards), so the parallel tick is byte-identical to serial.
    uint32_t sim_threads = 0;

    uint64_t seed = 7;
  };

  struct Sample {
    Micros time = 0;
    double throughput = 0;   // completions/sec in the sample window
    double avg_delay = 0;    // seconds
    double max_delay = 0;    // seconds
    double cpu = 0;          // mean node utilization in the window
    uint64_t backlog = 0;    // docs waiting (client + worker queues)
  };

  struct Metrics {
    uint64_t generated = 0;
    uint64_t completed = 0;
    Histogram delay;  // seconds, per completed write
    double max_delay = 0;
    std::vector<double> node_busy_seconds;   // CPU time consumed
    std::vector<uint64_t> node_completed;    // primary completions
    std::vector<uint64_t> shard_completed;
    std::vector<uint64_t> shard_docs;  // cumulative routed (shard size)
    std::vector<Sample> timeline;
    Micros measured_time = 0;

    double Throughput() const {
      return measured_time > 0
                 ? double(completed) * kMicrosPerSecond / double(measured_time)
                 : 0;
    }
    std::vector<double> NodeThroughputs() const;
    std::vector<double> NodeCpuUsage(double node_capacity) const;
    std::vector<double> ShardThroughputs() const;
  };

  explicit ClusterSim(Options options);

  // Advances the simulation. Metrics accumulate until ResetMetrics().
  void Run(Micros duration);

  // Clears accumulated metrics (use after warm-up). Queues, rules and
  // storage state persist.
  void ResetMetrics();

  // Changes the offered load (rate sweeps, festival schedule).
  void SetRate(double docs_per_sec) { options_.generate_rate = docs_per_sec; }

  // Remaps which tenants are hot (Section 6.2.3 adaptivity test).
  void ShiftHotspots(uint64_t shift) { generator_.ShiftHotspots(shift); }

  // Intensifies/relaxes the tenant skew mid-run (hotspot groups).
  void SetWorkloadTheta(double theta) { generator_.SetTenantTheta(theta); }

  // Kills a node: its primaries fail over to their replicas (queued
  // client work requeues on the new primary, arrival times preserved,
  // so delay keeps accruing and conservation holds), its replica and
  // overhead work is dropped, and migrations touching it abort.
  // Returns false if the node is already dead or fewer than two nodes
  // would remain alive.
  bool FailNode(uint32_t node);

  const Metrics& metrics() const { return metrics_; }
  Micros now() const { return clock_.Now(); }
  RuleList committed_rules() const { return coordinator_rules(); }
  size_t backlog() const;  // docs currently queued
  // Queue-entry count across all node/client queues — the
  // bounded-memory proxy for the 10k-shard scenario tests.
  size_t queue_entries() const;
  uint32_t primary_node(uint32_t shard) const { return shard_primary_[shard]; }
  uint32_t replica_node(uint32_t shard) const { return shard_replica_[shard]; }
  std::vector<uint32_t> alive_nodes() const;
  uint64_t migrations_started() const { return migrations_started_; }
  uint64_t migrations_completed() const { return migrations_completed_; }
  uint64_t migrations_aborted() const { return migrations_aborted_; }
  uint64_t rules_committed() const {
    return master_ ? master_->rounds_committed() : 0;
  }
  uint64_t rules_aborted() const {
    return master_ ? master_->rounds_aborted() : 0;
  }

 private:
  struct WorkBatch {
    Micros arrival = 0;
    uint32_t shard = 0;
    uint64_t count = 0;
    bool replica_work = false;
    // Pure-overhead work (migration bulk copy / dual-write mirror):
    // consumes CPU budget but completes no client writes — excluded
    // from backlog() and the delay histogram.
    double units = 0;
  };

  // One in-flight sim migration (the ShardMigrator state machine at
  // sim fidelity: Copying -> DualWrite -> cutover).
  struct SimMigration {
    uint32_t from = 0;
    uint32_t to = 0;
    double copy_remaining = 0;  // units still to bulk-copy
    uint64_t dual_ticks_left = 0;
  };

  // One node-tick's private output: the completions it drained (in
  // drain order) and the CPU it burned. Filled by ProcessNodeInto —
  // which touches only node-local state — and folded into the shared
  // metrics serially, in node order, by MergeNodeTick. The split is
  // what lets node ticks run on the pool while staying byte-identical
  // to the serial walk (same merge order, same float-addition order).
  struct NodeTickScratch {
    struct Completion {
      uint32_t shard = 0;
      uint64_t count = 0;
      double delay = 0;
    };
    std::vector<Completion> completions;
    double busy_seconds = 0;
  };

  RuleList coordinator_rules() const;
  // Placement tables (initialized to the historical modulo layout;
  // rewritten by FailNode and migration cutover).
  uint32_t PrimaryNode(uint32_t shard) const { return shard_primary_[shard]; }
  uint32_t ReplicaNode(uint32_t shard) const { return shard_replica_[shard]; }
  // Next alive node after `after`, skipping `exclude` (deterministic
  // replacement pick for failover rebuilds).
  uint32_t NextAliveNode(uint32_t after, uint32_t exclude) const;
  bool NodeOverLimit(uint32_t node) const;
  bool AnyNodeOverLimit() const;
  void Deliver(const WorkBatch& batch);  // enqueue primary + replica work
  void DeliverOverhead(uint32_t node, uint32_t shard, double units);
  void Tick();
  void RouteArrivals(uint64_t count);
  void ProcessNodeInto(uint32_t node, NodeTickScratch* out);
  void MergeNodeTick(uint32_t node, const NodeTickScratch& scratch);
  void ControlLoop();
  void MigrationLoop();  // serial, inside ControlLoop
  void SampleTimeline();

  Options options_;
  VirtualClock clock_;
  WorkloadGenerator generator_;
  std::unique_ptr<RoutingPolicy> routing_;
  DynamicSecondaryHashing* dynamic_ = nullptr;

  // Control plane (dynamic routing only).
  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<ConsensusMaster> master_;
  std::vector<std::unique_ptr<ConsensusParticipant>> participants_;
  WorkloadMonitor monitor_;
  LoadBalancer balancer_;
  std::map<uint64_t, TenantId> round_tenant_;  // in-flight rounds
  std::set<TenantId> tenants_in_flight_;
  Micros next_window_end_ = 0;

  // Placement + liveness (serial sections only: RouteArrivals,
  // ControlLoop, FailNode — never touched by pooled node ticks).
  std::vector<uint32_t> shard_primary_;
  std::vector<uint32_t> shard_replica_;
  std::vector<bool> node_alive_;
  uint32_t num_alive_ = 0;

  // Migration control (sim fidelity). std::map iteration order makes
  // the per-tick progress walk deterministic.
  ShardHeatTracker heat_;
  MigrationPlanner planner_;
  std::map<uint32_t, SimMigration> migrations_;  // by shard
  Micros next_migration_check_ = 0;
  Micros next_churn_ = 0;
  uint64_t migrations_started_ = 0;
  uint64_t migrations_completed_ = 0;
  uint64_t migrations_aborted_ = 0;

  // Data plane.
  std::vector<std::deque<WorkBatch>> node_queues_;
  std::vector<double> node_queued_units_;  // backlog per node, in units
  std::vector<WorkBatch> held_;  // writes blocked by commit wait
  // Client-side backlogs: docs the write client could not submit.
  std::deque<WorkBatch> client_backlog_;      // global stall (no isolation)
  std::deque<WorkBatch> client_hot_backlog_;  // per-shard holds (isolation)
  double arrival_accumulator_ = 0;
  // Per-tick routing scratch (flat counts + touched list).
  std::vector<uint64_t> per_shard_scratch_;
  std::vector<uint32_t> touched_shards_;
  // Sim workers (Options::sim_threads > 0): node ticks fan out here;
  // the RunPerOrdinal join is the tick barrier. One scratch slot per
  // node, reused across ticks.
  std::unique_ptr<ThreadPool> sim_pool_;
  std::vector<NodeTickScratch> node_scratch_;

  // Metrics.
  Metrics metrics_;
  Micros next_sample_end_ = 0;
  uint64_t window_completed_ = 0;
  double window_delay_sum_ = 0;
  double window_delay_max_ = 0;
  double window_busy_seconds_ = 0;
};

}  // namespace esdb

#endif  // ESDB_SIM_CLUSTER_SIM_H_
