#include "sim/cluster_sim.h"

#include <algorithm>
#include <cmath>

namespace esdb {

std::vector<double> ClusterSim::Metrics::NodeThroughputs() const {
  std::vector<double> out(node_completed.size());
  if (measured_time <= 0) return out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = double(node_completed[i]) * kMicrosPerSecond /
             double(measured_time);
  }
  return out;
}

std::vector<double> ClusterSim::Metrics::NodeCpuUsage(
    double node_capacity) const {
  std::vector<double> out(node_busy_seconds.size());
  const double wall = double(measured_time) / kMicrosPerSecond;
  if (wall <= 0 || node_capacity <= 0) return out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = node_busy_seconds[i] / wall;
  }
  return out;
}

std::vector<double> ClusterSim::Metrics::ShardThroughputs() const {
  std::vector<double> out(shard_completed.size());
  if (measured_time <= 0) return out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = double(shard_completed[i]) * kMicrosPerSecond /
             double(measured_time);
  }
  return out;
}

ClusterSim::ClusterSim(Options options)
    : options_(std::move(options)),
      generator_([&] {
        WorkloadGenerator::Options w = options_.workload;
        w.full_documents = false;  // the simulator routes keys only
        w.seed = options_.seed;
        return w;
      }()),
      balancer_(options_.balancer),
      heat_(options_.num_shards),
      planner_([&] {
        MigrationPlanner::Options p;
        p.imbalance_ratio = options_.migration.imbalance_ratio;
        p.min_node_score = options_.migration.min_node_score;
        p.max_concurrent = options_.migration.max_concurrent;
        return p;
      }()) {
  // Under logical replication a replica re-executes every write.
  if (options_.replication == ReplicationMode::kLogical) {
    options_.replica_cost = options_.write_cost;
  }

  routing_ = MakeRoutingPolicy(options_.routing, options_.num_shards,
                               options_.double_hash_offset);
  dynamic_ = dynamic_cast<DynamicSecondaryHashing*>(routing_.get());
  if (dynamic_ != nullptr) {
    // Control plane: node 0 is the master; every node participates.
    network_ = std::make_unique<SimNetwork>(&clock_, options_.network);
    std::vector<NodeId> ids;
    for (uint32_t i = 0; i < options_.num_nodes; ++i) {
      ids.push_back(NodeId(i + 1));  // participant ids 1..num_nodes
      participants_.push_back(std::make_unique<ConsensusParticipant>(
          NodeId(i + 1), network_.get(), &clock_));
    }
    master_ = std::make_unique<ConsensusMaster>(
        NodeId(0), network_.get(), &clock_, ids, options_.consensus);
  }

  // Placement tables start at the historical modulo layout; FailNode
  // and migration cutovers rewrite entries from there.
  shard_primary_.resize(options_.num_shards);
  shard_replica_.resize(options_.num_shards);
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    shard_primary_[shard] = shard % options_.num_nodes;
    shard_replica_[shard] = (shard + 1) % options_.num_nodes;
  }
  node_alive_.assign(options_.num_nodes, true);
  num_alive_ = options_.num_nodes;
  next_migration_check_ = options_.migration.check_interval;
  next_churn_ = options_.churn_interval;

  node_queues_.resize(options_.num_nodes);
  node_queued_units_.assign(options_.num_nodes, 0);
  node_scratch_.resize(options_.num_nodes);
  if (options_.sim_threads > 0) {
    sim_pool_ = std::make_unique<ThreadPool>(options_.sim_threads);
  }
  metrics_.node_busy_seconds.assign(options_.num_nodes, 0);
  metrics_.node_completed.assign(options_.num_nodes, 0);
  metrics_.shard_completed.assign(options_.num_shards, 0);
  metrics_.shard_docs.assign(options_.num_shards, 0);
  next_window_end_ = options_.monitor_window;
  next_sample_end_ = options_.sample_period;
}

RuleList ClusterSim::coordinator_rules() const {
  return dynamic_ != nullptr ? dynamic_->rules() : RuleList();
}

size_t ClusterSim::backlog() const {
  size_t docs = 0;
  for (const auto& queue : node_queues_) {
    for (const WorkBatch& batch : queue) {
      if (!batch.replica_work) docs += batch.count;
    }
  }
  for (const WorkBatch& batch : held_) docs += batch.count;
  for (const WorkBatch& batch : client_backlog_) docs += batch.count;
  for (const WorkBatch& batch : client_hot_backlog_) docs += batch.count;
  return docs;
}

size_t ClusterSim::queue_entries() const {
  size_t entries =
      held_.size() + client_backlog_.size() + client_hot_backlog_.size();
  for (const auto& queue : node_queues_) entries += queue.size();
  return entries;
}

std::vector<uint32_t> ClusterSim::alive_nodes() const {
  std::vector<uint32_t> alive;
  for (uint32_t n = 0; n < options_.num_nodes; ++n) {
    if (node_alive_[n]) alive.push_back(n);
  }
  return alive;
}

bool ClusterSim::FailNode(uint32_t node) {
  if (node >= options_.num_nodes || !node_alive_[node] || num_alive_ <= 2) {
    return false;
  }
  node_alive_[node] = false;
  --num_alive_;

  // Migrations touching the dead node abort (same rule as the engine:
  // a dead target can't be cut over to; a dead source just failed
  // over, invalidating the pinned epoch).
  for (auto it = migrations_.begin(); it != migrations_.end();) {
    if (it->second.from == node || it->second.to == node) {
      ++migrations_aborted_;
      it = migrations_.erase(it);
    } else {
      ++it;
    }
  }

  // Failover: promote replicas of the dead node's primaries; pick
  // deterministic replacement replicas among the survivors.
  for (uint32_t shard = 0; shard < options_.num_shards; ++shard) {
    if (shard_primary_[shard] == node) {
      shard_primary_[shard] = shard_replica_[shard];
      shard_replica_[shard] =
          NextAliveNode(shard_primary_[shard], shard_primary_[shard]);
    } else if (shard_replica_[shard] == node) {
      shard_replica_[shard] = NextAliveNode(node, shard_primary_[shard]);
    }
  }

  // The dead node's queued client writes requeue on each shard's new
  // primary directly (NOT via Deliver — they were already counted in
  // shard_docs and already charged replica work once). Arrival times
  // survive, so their delay keeps accruing and the conservation
  // invariant completed + backlog == generated holds across the
  // failure. Replica and migration-overhead work dies with the node.
  std::deque<WorkBatch> orphaned;
  orphaned.swap(node_queues_[node]);
  node_queued_units_[node] = 0;
  for (const WorkBatch& batch : orphaned) {
    if (batch.replica_work || batch.units > 0 || batch.count == 0) continue;
    const uint32_t target = shard_primary_[batch.shard];
    node_queues_[target].push_back(batch);
    node_queued_units_[target] += double(batch.count) * options_.write_cost;
  }
  return true;
}

bool ClusterSim::NodeOverLimit(uint32_t node) const {
  return node_queued_units_[node] >
         options_.client_queue_limit_seconds * options_.node_capacity;
}

bool ClusterSim::AnyNodeOverLimit() const {
  for (uint32_t n = 0; n < options_.num_nodes; ++n) {
    if (node_alive_[n] && NodeOverLimit(n)) return true;
  }
  return false;
}

uint32_t ClusterSim::NextAliveNode(uint32_t after, uint32_t exclude) const {
  for (uint32_t step = 1; step <= options_.num_nodes; ++step) {
    const uint32_t node = (after + step) % options_.num_nodes;
    if (node_alive_[node] && node != exclude) return node;
  }
  return after;
}

void ClusterSim::Deliver(const WorkBatch& batch) {
  if (batch.count == 0) return;
  metrics_.shard_docs[batch.shard] += batch.count;
  // Migration telemetry: rows routed + their processing cost. Fed
  // here (serial) rather than in node ticks, so pooled runs stay
  // byte-identical to serial.
  heat_.RecordWrite(batch.shard, batch.count);
  heat_.RecordProcessing(
      batch.shard, uint64_t(double(batch.count) * options_.write_cost));
  node_queues_[PrimaryNode(batch.shard)].push_back(batch);
  node_queued_units_[PrimaryNode(batch.shard)] +=
      double(batch.count) * options_.write_cost;

  WorkBatch replica = batch;
  replica.replica_work = true;
  node_queues_[ReplicaNode(batch.shard)].push_back(replica);
  node_queued_units_[ReplicaNode(batch.shard)] +=
      double(batch.count) * options_.replica_cost;

  // Dual-write mirroring: once the bulk copy is done, every write to
  // a migrating shard also charges the target node (the mirrored
  // apply). Pure overhead — the source still completes the write.
  const auto it = migrations_.find(batch.shard);
  if (it != migrations_.end() && it->second.copy_remaining <= 0) {
    DeliverOverhead(
        it->second.to, batch.shard,
        double(batch.count) * options_.migration.dual_write_cost);
  }
}

void ClusterSim::DeliverOverhead(uint32_t node, uint32_t shard,
                                 double units) {
  if (units <= 0 || !node_alive_[node]) return;
  WorkBatch batch;
  batch.arrival = clock_.Now();
  batch.shard = shard;
  batch.units = units;
  node_queues_[node].push_back(batch);
  node_queued_units_[node] += units;
}

void ClusterSim::Run(Micros duration) {
  const Micros end = clock_.Now() + duration;
  while (clock_.Now() < end) Tick();
}

void ClusterSim::ResetMetrics() {
  metrics_.generated = 0;
  metrics_.completed = 0;
  metrics_.delay.Reset();
  metrics_.max_delay = 0;
  std::fill(metrics_.node_busy_seconds.begin(),
            metrics_.node_busy_seconds.end(), 0);
  std::fill(metrics_.node_completed.begin(), metrics_.node_completed.end(),
            0);
  std::fill(metrics_.shard_completed.begin(), metrics_.shard_completed.end(),
            0);
  // shard_docs (storage) intentionally persists.
  metrics_.timeline.clear();
  metrics_.measured_time = 0;
  window_completed_ = 0;
  window_delay_sum_ = 0;
  window_delay_max_ = 0;
  window_busy_seconds_ = 0;
}

void ClusterSim::RouteArrivals(uint64_t count) {
  const Micros now = clock_.Now();
  const ConsensusParticipant* coordinator =
      participants_.empty() ? nullptr : participants_[0].get();
  const bool blocked =
      coordinator != nullptr && coordinator->IsBlocked(now);

  // --- Re-submit client backlogs when conditions allow --------------

  // Hot backlog (isolation mode): batches bound to a specific shard;
  // released once that shard's worker drains below the limit.
  if (!client_hot_backlog_.empty()) {
    std::deque<WorkBatch> still_held;
    for (WorkBatch& batch : client_hot_backlog_) {
      if (NodeOverLimit(PrimaryNode(batch.shard))) {
        still_held.push_back(std::move(batch));
      } else {
        Deliver(batch);
      }
    }
    client_hot_backlog_ = std::move(still_held);
  }

  // Per-tick aggregation: arrivals bucketed by destination shard.
  // Flat array + touched list keeps the per-document cost at a few
  // nanoseconds (this loop routes hundreds of millions of docs per
  // bench run).
  if (per_shard_scratch_.size() != options_.num_shards) {
    per_shard_scratch_.assign(options_.num_shards, 0);
  }
  touched_shards_.clear();
  auto route_one = [&](const RouteKey& key) {
    const ShardId shard = routing_->RouteWrite(key);
    if (per_shard_scratch_[shard] == 0) touched_shards_.push_back(shard);
    per_shard_scratch_[shard]++;
  };

  // Global backlog (plain transport clients): the whole client stalls
  // while any worker is over its queue limit; FIFO resubmission
  // preserves original arrival times (delay keeps accruing). The
  // scratch array is shared with the arrivals loop below, so the
  // touched list is reset between the two uses.
  const bool stalled =
      !options_.hotspot_isolation && AnyNodeOverLimit();
  if (!stalled && !client_backlog_.empty()) {
    // Resubmission bandwidth: a few ticks' worth of arrivals per tick.
    uint64_t release_budget = 4 * count + 1024;
    while (!client_backlog_.empty() && release_budget > 0 &&
           !AnyNodeOverLimit()) {
      WorkBatch& batch = client_backlog_.front();
      const uint64_t n = std::min(batch.count, release_budget);
      release_budget -= n;
      // Tenant mix of backlogged docs is re-sampled on release
      // (statistically identical; tenants were not materialized).
      // Aggregate per shard to keep queue entries coarse.
      touched_shards_.clear();
      for (uint64_t i = 0; i < n; ++i) {
        const ShardId shard = routing_->RouteWrite(generator_.NextKey(now));
        if (per_shard_scratch_[shard] == 0) touched_shards_.push_back(shard);
        per_shard_scratch_[shard]++;
      }
      for (const uint32_t shard : touched_shards_) {
        WorkBatch release;
        release.arrival = batch.arrival;
        release.shard = shard;
        release.count = per_shard_scratch_[shard];
        per_shard_scratch_[shard] = 0;
        Deliver(release);
      }
      batch.count -= n;
      if (batch.count == 0) client_backlog_.pop_front();
    }
  }

  touched_shards_.clear();  // reset after the release loop's use
  uint64_t held_count = 0;
  uint64_t backlogged = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const RouteKey key = generator_.NextKey(now);
    monitor_.RecordWrite(key.tenant);
    if (blocked) {
      // Commit wait: writes at/after a prepared rule's effective time
      // hold until the round decides. (T is chosen so this almost
      // never triggers; see Section 4.3.)
      ++held_count;
      continue;
    }
    if (stalled) {
      ++backlogged;
      continue;
    }
    route_one(key);
  }
  metrics_.generated += count;
  if (coordinator != nullptr && count > 0 && !blocked) {
    for (auto& p : participants_) p->ObserveWrite(now);
  }

  if (backlogged > 0) {
    WorkBatch batch;
    batch.arrival = now;
    batch.count = backlogged;
    client_backlog_.push_back(batch);
  }

  if (held_count > 0) {
    // Held work is re-routed (with fresh rules) when unblocked; tenant
    // mix is re-sampled on release, which preserves rates.
    WorkBatch held;
    held.arrival = now;
    held.count = held_count;
    held_.push_back(held);
  } else if (!held_.empty() && !blocked) {
    std::vector<WorkBatch> pending;
    pending.swap(held_);
    for (const WorkBatch& batch : pending) {
      for (uint64_t i = 0; i < batch.count; ++i) {
        route_one(generator_.NextKey(now));
      }
    }
  }

  for (const uint32_t shard : touched_shards_) {
    const uint64_t n = per_shard_scratch_[shard];
    per_shard_scratch_[shard] = 0;
    WorkBatch batch;
    batch.arrival = now;
    batch.shard = shard;
    batch.count = n;
    if (options_.hotspot_isolation && NodeOverLimit(PrimaryNode(shard))) {
      // Hotspot isolation: only this shard's writes wait, in their own
      // queue; the rest of the workload is unaffected.
      client_hot_backlog_.push_back(batch);
      continue;
    }
    Deliver(batch);
  }
}

void ClusterSim::ProcessNodeInto(uint32_t node, NodeTickScratch* out) {
  out->completions.clear();
  out->busy_seconds = 0;
  if (!node_alive_[node]) return;  // dead nodes burn no CPU

  const double tick_seconds = double(options_.tick) / kMicrosPerSecond;
  double budget = options_.node_capacity * tick_seconds;
  const double full_budget = budget;
  const Micros completion_time = clock_.Now() + options_.tick;

  std::deque<WorkBatch>& queue = node_queues_[node];
  while (budget > 0 && !queue.empty()) {
    WorkBatch& batch = queue.front();
    if (batch.count == 0 && batch.units <= 0) {
      queue.pop_front();
      continue;
    }
    // Migration overhead (bulk copy / dual-write mirror): burns CPU
    // budget, completes no client writes.
    if (batch.units > 0) {
      const double can = std::min(batch.units, budget);
      batch.units -= can;
      budget -= can;
      node_queued_units_[node] -= can;
      if (batch.units <= 1e-9) queue.pop_front();
      continue;
    }
    const double cost =
        batch.replica_work ? options_.replica_cost : options_.write_cost;
    const uint64_t can_do =
        std::min<uint64_t>(batch.count, uint64_t(budget / cost));
    if (can_do == 0) break;
    batch.count -= can_do;
    budget -= double(can_do) * cost;
    node_queued_units_[node] -= double(can_do) * cost;
    if (!batch.replica_work) {
      const double delay =
          double(completion_time - batch.arrival) / kMicrosPerSecond;
      out->completions.push_back(
          NodeTickScratch::Completion{batch.shard, can_do, delay});
    }
    if (batch.count == 0) queue.pop_front();
  }
  out->busy_seconds = (full_budget - budget) / options_.node_capacity;
}

void ClusterSim::MergeNodeTick(uint32_t node, const NodeTickScratch& scratch) {
  for (const NodeTickScratch::Completion& done : scratch.completions) {
    metrics_.completed += done.count;
    metrics_.delay.RecordN(done.delay, done.count);
    metrics_.max_delay = std::max(metrics_.max_delay, done.delay);
    metrics_.node_completed[node] += done.count;
    metrics_.shard_completed[done.shard] += done.count;
    window_completed_ += done.count;
    window_delay_sum_ += done.delay * double(done.count);
    window_delay_max_ = std::max(window_delay_max_, done.delay);
  }
  metrics_.node_busy_seconds[node] += scratch.busy_seconds;
  window_busy_seconds_ += scratch.busy_seconds;
}

void ClusterSim::ControlLoop() {
  if (dynamic_ == nullptr) {
    if (clock_.Now() >= next_window_end_) {
      monitor_.Drain();  // bound the map for static policies too
      next_window_end_ += options_.monitor_window;
    }
    return;
  }

  // Monitor window: detect hotspots, propose rules.
  if (clock_.Now() >= next_window_end_) {
    const std::vector<RuleProposal> proposals =
        balancer_.OnWindow(monitor_.Drain(), coordinator_rules());
    for (const RuleProposal& p : proposals) {
      if (tenants_in_flight_.count(p.tenant) > 0) continue;
      const uint64_t round = master_->ProposeRule(p.tenant, p.offset);
      round_tenant_[round] = p.tenant;
      tenants_in_flight_.insert(p.tenant);
    }
    next_window_end_ += options_.monitor_window;
  }

  // Drive the consensus state machines.
  master_->Step();
  for (auto& p : participants_) p->Step();

  // Clear in-flight markers for decided rounds.
  for (auto it = round_tenant_.begin(); it != round_tenant_.end();) {
    const auto state = master_->GetRoundState(it->first);
    if (state.has_value() &&
        *state != ConsensusMaster::RoundState::kPreparing) {
      tenants_in_flight_.erase(it->second);
      it = round_tenant_.erase(it);
    } else {
      ++it;
    }
  }

  // Coordinators route with their participant's committed rule list.
  dynamic_->PublishRules(participants_[0]->rules());
}

void ClusterSim::MigrationLoop() {
  if (!options_.migration.enabled) return;
  const double tick_seconds = double(options_.tick) / kMicrosPerSecond;

  // Advance in-flight migrations (map order -> deterministic).
  for (auto it = migrations_.begin(); it != migrations_.end();) {
    SimMigration& m = it->second;
    if (m.copy_remaining > 0) {
      // Copying: ship one tick's worth of bulk-copy bandwidth as
      // overhead work on the target. The delta replay is folded into
      // copy_cost, so copy completion IS dual-write entry.
      const double chunk =
          std::min(m.copy_remaining, options_.migration.copy_rate * tick_seconds);
      m.copy_remaining -= chunk;
      if (m.copy_remaining <= 1e-9) m.copy_remaining = 0;
      DeliverOverhead(m.to, it->first, chunk);
      ++it;
    } else if (m.dual_ticks_left > 0) {
      // DualWrite: mirror costs accrue in Deliver(); here we just
      // count down to the cutover.
      --m.dual_ticks_left;
      ++it;
    } else {
      // CutOver: flip the placement entry. Virtual-time atomicity —
      // every later tick routes to the new primary; nothing in flight
      // is lost because the source's queue entries stay where they
      // are and drain normally.
      const uint32_t shard = it->first;
      if (shard_replica_[shard] == m.to) shard_replica_[shard] = m.from;
      shard_primary_[shard] = m.to;
      ++migrations_completed_;
      it = migrations_.erase(it);
    }
  }

  // Planner cadence: decide on the full window's heat, then decay.
  if (clock_.Now() < next_migration_check_) return;
  next_migration_check_ += options_.migration.check_interval;
  std::set<ShardId> migrating;
  for (const auto& entry : migrations_) migrating.insert(entry.first);
  const std::vector<uint32_t> alive = alive_nodes();
  for (const MigrationPlan& plan :
       planner_.Decide(heat_, shard_primary_, alive, migrating)) {
    SimMigration m;
    m.from = plan.from;
    m.to = plan.to;
    m.copy_remaining =
        double(metrics_.shard_docs[plan.shard]) * options_.migration.copy_cost;
    m.dual_ticks_left = std::max<uint64_t>(
        1, uint64_t(options_.migration.dual_write_duration / options_.tick));
    migrations_[plan.shard] = m;
    ++migrations_started_;
  }
  heat_.Decay();
}

void ClusterSim::SampleTimeline() {
  if (clock_.Now() < next_sample_end_) return;
  Sample s;
  s.time = clock_.Now();
  const double window_sec =
      double(options_.sample_period) / kMicrosPerSecond;
  s.throughput = double(window_completed_) / window_sec;
  s.avg_delay = window_completed_ > 0
                    ? window_delay_sum_ / double(window_completed_)
                    : 0;
  s.max_delay = window_delay_max_;
  s.cpu = window_busy_seconds_ / (window_sec * double(options_.num_nodes));
  s.backlog = backlog();
  metrics_.timeline.push_back(s);
  window_completed_ = 0;
  window_delay_sum_ = 0;
  window_delay_max_ = 0;
  window_busy_seconds_ = 0;
  next_sample_end_ += options_.sample_period;
}

void ClusterSim::Tick() {
  // Tenant churn schedule: shift the hot tenant set on its cadence.
  if (options_.churn_interval > 0 && clock_.Now() >= next_churn_) {
    generator_.ShiftHotspots(options_.churn_shift);
    next_churn_ += options_.churn_interval;
  }

  // Arrivals for this tick (fractional rates accumulate).
  arrival_accumulator_ +=
      options_.generate_rate * double(options_.tick) / kMicrosPerSecond;
  const uint64_t arrivals = uint64_t(arrival_accumulator_);
  arrival_accumulator_ -= double(arrivals);
  RouteArrivals(arrivals);

  // Node ticks are independent: each drains its own queue and writes
  // only its scratch slot (sim workers, when sim_threads > 0; the
  // RunPerOrdinal join is the tick barrier). Completions then merge
  // serially in node order — the same statement order as the
  // historical serial walk — so pooled and serial runs are
  // byte-identical.
  RunPerOrdinal(sim_pool_.get(), options_.num_nodes, [this](size_t node) {
    ProcessNodeInto(uint32_t(node), &node_scratch_[node]);
  });
  for (uint32_t node = 0; node < options_.num_nodes; ++node) {
    MergeNodeTick(node, node_scratch_[node]);
  }

  ControlLoop();
  MigrationLoop();
  clock_.Advance(options_.tick);
  metrics_.measured_time += options_.tick;
  SampleTimeline();
}

}  // namespace esdb
