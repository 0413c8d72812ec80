#include "smr/command_table.hpp"

#include <algorithm>

#include "smr/checkpoint.hpp"

namespace modubft::smr {

bool CommandTable::is_client_cmd(std::uint64_t id) const {
  const std::uint32_t client = client_of_cmd(id);
  return client >= first_client_ && client - first_client_ < clients_;
}

bool CommandTable::admit(Command cmd, Bytes sig,
                         std::optional<std::uint32_t> origin) {
  const std::uint64_t id = cmd.id;
  if (!bodies_.emplace(id, Entry{std::move(cmd), std::move(sig)}).second) {
    return false;
  }
  if (committed(id)) return false;
  pending_.insert(id);
  if (!is_client_cmd(id)) return false;
  queue_.insert(id);
  if (origin.has_value()) {
    relay_origin_[id] = *origin;
    ++origin_load_[*origin];
  }
  return true;
}

const Command* CommandTable::commit(std::uint64_t id) {
  auto it = bodies_.find(id);
  if (it == bodies_.end() || !committed_.insert(id).second) return nullptr;
  pending_.erase(id);
  if (is_client_cmd(id)) {
    queue_.erase(id);
    ++committed_count_[client_of_cmd(id)];
    auto ro = relay_origin_.find(id);
    if (ro != relay_origin_.end()) {
      auto load = origin_load_.find(ro->second);
      if (load != origin_load_.end() && load->second > 0) --load->second;
      relay_origin_.erase(ro);
    }
  }
  return &it->second.cmd;
}

std::uint64_t CommandTable::claim(std::uint64_t slot, std::size_t width) {
  std::vector<std::uint64_t> ids = proposable(width);
  if (ids.empty()) return 0;  // nothing pending: no-op proposal
  const std::uint64_t proposal = ids.front();
  claimed_.insert(ids.begin(), ids.end());
  claims_.emplace(slot, std::move(ids));
  return proposal;
}

void CommandTable::release_below(std::uint64_t slot) {
  const auto end = claims_.lower_bound(slot);
  for (auto c = claims_.begin(); c != end; ++c) {
    for (std::uint64_t id : c->second) claimed_.erase(id);
  }
  claims_.erase(claims_.begin(), end);
}

void CommandTable::install(std::set<std::uint64_t> ids) {
  committed_ = std::move(ids);
  committed_count_.clear();
  for (std::uint64_t id : committed_) {
    if (is_client_cmd(id)) ++committed_count_[client_of_cmd(id)];
  }
  pending_.clear();
  queue_.clear();
  for (const auto& [id, entry] : bodies_) {
    if (committed(id)) continue;
    pending_.insert(id);
    if (is_client_cmd(id)) queue_.insert(id);
  }
  relay_origin_.clear();
  origin_load_.clear();
}

std::vector<std::uint64_t> CommandTable::scan(std::size_t limit,
                                              bool skip_claimed) const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t id : pending_) {
    if (out.size() >= limit) break;
    if (skip_claimed && claimed_.count(id) > 0) continue;
    out.push_back(id);
  }
  return out;
}

std::vector<std::uint64_t> CommandTable::proposable(std::size_t limit) const {
  return scan(limit, /*skip_claimed=*/true);
}

std::vector<std::uint64_t> CommandTable::uncommitted(std::size_t limit) const {
  return scan(limit, /*skip_claimed=*/false);
}

const Command* CommandTable::body(std::uint64_t id) const {
  auto it = bodies_.find(id);
  return it == bodies_.end() ? nullptr : &it->second.cmd;
}

const Bytes* CommandTable::sig(std::uint64_t id) const {
  auto it = bodies_.find(id);
  return it == bodies_.end() || it->second.sig.empty() ? nullptr
                                                       : &it->second.sig;
}

std::uint64_t CommandTable::committed_count(std::uint32_t client) const {
  auto it = committed_count_.find(client);
  return it == committed_count_.end() ? 0 : it->second;
}

std::uint64_t CommandTable::origin_load(std::uint32_t origin) const {
  auto it = origin_load_.find(origin);
  return it == origin_load_.end() ? 0 : it->second;
}

}  // namespace modubft::smr
