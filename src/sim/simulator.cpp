#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace fairshare::sim {

Simulator::Simulator(std::vector<PeerSetup> peers, SimConfig config)
    : peers_(std::move(peers)), config_(config) {
  const std::size_t n = peers_.size();
  assert(n > 0);
  declared_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    assert(peers_[i].demand && "every peer needs a demand process");
    assert(peers_[i].policy && "every peer needs an allocation policy");
    declared_[i] = peers_[i].declared_kbps >= 0.0 ? peers_[i].declared_kbps
                                                  : peers_[i].upload_kbps;
  }
  if (config_.registry)
    slots_counter_ = &config_.registry->counter("fairshare_sim_slots_total");
  contribution_.assign(n * n, 0.0);
  download_.resize(n);
  requested_.resize(n);
  offered_.resize(n);
  requesting_.resize(n);
  alloc_row_.resize(n);
  slot_download_.resize(n);
  slot_matrix_.resize(n * n);
}

double Simulator::capacity_at(std::size_t i, std::uint64_t t) const {
  const PeerSetup& p = peers_[i];
  if (p.contributes && !p.contributes(t)) return 0.0;
  return p.capacity_schedule ? p.capacity_schedule(t) : p.upload_kbps;
}

void Simulator::step() {
  obs::TraceSpan span(
      config_.registry ? &config_.registry->spans() : nullptr, "sim.slot");
  const std::size_t n = peers_.size();
  const std::uint64_t t = slot_;

  for (std::size_t i = 0; i < n; ++i)
    requesting_[i] = peers_[i].demand->requests(t) ? 1 : 0;

  std::fill(slot_download_.begin(), slot_download_.end(), 0.0);
  std::fill(slot_matrix_.begin(), slot_matrix_.end(), 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    const double cap = capacity_at(i, t);
    offered_[i].append(cap);
    if (cap <= 0.0) continue;

    alloc::PeerContext ctx;
    ctx.self = i;
    ctx.slot = t;
    ctx.capacity = cap;
    ctx.requesting = requesting_;
    ctx.declared = declared_;
    peers_[i].policy->allocate(ctx, alloc_row_);
    alloc::clamp_to_capacity(requesting_, cap, alloc_row_);
    if (config_.quantum_kbps > 0.0) {
      for (std::size_t j = 0; j < n; ++j)
        alloc_row_[j] = std::floor(alloc_row_[j] / config_.quantum_kbps) *
                        config_.quantum_kbps;
    }

    for (std::size_t j = 0; j < n; ++j) {
      const double r = alloc_row_[j];
      if (r <= 0.0) continue;
      slot_matrix_[i * n + j] = r;
      slot_download_[j] += r;
      contribution_[i * n + j] += r;
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    download_[j].append(slot_download_[j]);
    requested_[j].append(requesting_[j] ? 1.0 : 0.0);
  }

  // Local feedback: what user i received from each peer this slot
  // (column i of the slot matrix).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) alloc_row_[j] = slot_matrix_[j * n + i];
    alloc::SlotFeedback fb;
    fb.slot = t;
    fb.received = alloc_row_;
    peers_[i].policy->observe(fb);
  }

  if (slots_counter_) slots_counter_->add();
  ++slot_;
}

void Simulator::run(std::uint64_t slots) {
  for (std::uint64_t s = 0; s < slots; ++s) step();
}

double Simulator::average_pairwise(std::size_t i, std::size_t j) const {
  if (slot_ == 0) return 0.0;
  return contribution(i, j) / static_cast<double>(slot_);
}

double Simulator::average_download(std::size_t i) const {
  return download_[i].mean();
}

double Simulator::isolated_average(std::size_t i) const {
  const Trace& req = requested_[i];
  const Trace& cap = offered_[i];
  if (req.size() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t t = 0; t < req.size(); ++t)
    sum += req.at(t) * cap.at(t);
  return sum / static_cast<double>(req.size());
}

}  // namespace fairshare::sim
