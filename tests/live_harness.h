// Live-mode service harness: builds real multi-node CCF services over
// loopback TCP (LiveNodeHost + LiveClient), mirroring the simulator's
// ServiceHarness API where it makes sense. Reuses the deterministic
// consortium/user identities so governance flows are identical under both
// drivers.
//
// Everything here runs on wall-clock time: waits are real sleeps with
// deadlines, sized for the FastNodeConfig timeouts (elections 50-100ms).

#ifndef CCF_TESTS_LIVE_HARNESS_H_
#define CCF_TESTS_LIVE_HARNESS_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "host/live_client.h"
#include "host/live_node.h"
#include "apps/logging.h"
#include "tests/service_harness.h"

namespace ccf::testing {

inline bool LiveWaitFor(const std::function<bool()>& pred,
                        uint64_t timeout_ms = 5000) {
  uint64_t deadline = host::SteadyNowMs() + timeout_ms;
  while (host::SteadyNowMs() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class LiveServiceHarness {
 public:
  explicit LiveServiceHarness(int num_members = 3)
      : consortium_(num_members) {}
  ~LiveServiceHarness() {
    clients_.clear();  // close client sockets before the nodes go away
    hosts_.clear();
  }

  Consortium& consortium() { return consortium_; }

  void SetConfigTweak(std::function<void(node::NodeConfig*)> tweak) {
    config_tweak_ = std::move(tweak);
  }

  // Adds a user before genesis.
  TestUser* AddUser(const std::string& id) {
    users_[id] = std::make_unique<TestUser>(id);
    return users_[id].get();
  }

  // Starts n0 with the logging app and waits for it to become primary.
  host::LiveNodeHost* StartGenesis(bool open_immediately = true) {
    node::ServiceInit init;
    init.members = consortium_.Identities();
    init.open_immediately = open_immediately;
    for (auto& [id, user] : users_) {
      init.initial_users.emplace_back(id, user->cert.Serialize());
    }
    host::LiveNodeConfig cfg;
    cfg.node = FastNodeConfig("n0");
    if (config_tweak_) config_tweak_(&cfg.node);
    auto started =
        host::LiveNodeHost::StartGenesis(std::move(cfg), init, &logging_app_);
    if (!started.ok()) return nullptr;
    host::LiveNodeHost* ptr = started->get();
    hosts_["n0"] = std::move(*started);
    service_identity_ = ptr->WithNode(
        [](node::Node* n) { return n->service_identity(); });
    if (!LiveWaitFor([ptr] {
          return ptr->WithNode([](node::Node* n) { return n->IsPrimary(); });
        })) {
      return nullptr;
    }
    return ptr;
  }

  // Governance requests are submitted through member clients connected to
  // this node (writes forward to the primary). Point it at a live node
  // after killing n0.
  void SetGovNode(const std::string& id) { gov_node_ = id; }

  // Starts `id` as a joiner peered with every running node, waits for the
  // join handshake, then drives governance to trust it.
  host::LiveNodeHost* JoinAndTrust(const std::string& id,
                                   uint64_t timeout_ms = 10000,
                                   const std::string& target = "n0") {
    host::LiveNodeHost* joiner = Join(id, target);
    if (joiner == nullptr) return nullptr;
    if (!LiveWaitFor(
            [joiner] {
              return joiner->WithNode(
                  [](node::Node* n) { return n->has_joined(); });
            },
            timeout_ms)) {
      return nullptr;
    }
    if (!TrustNode(id, timeout_ms)) return nullptr;
    return joiner;
  }

  host::LiveNodeHost* Join(const std::string& id,
                           const std::string& target = "n0") {
    host::LiveNodeConfig cfg;
    cfg.node = FastNodeConfig(id, std::hash<std::string>{}(id) % 1000);
    if (config_tweak_) config_tweak_(&cfg.node);
    for (auto& [nid, h] : hosts_) {
      cfg.transport.peers[nid] =
          "127.0.0.1:" + std::to_string(h->node_port());
    }
    auto started = host::LiveNodeHost::StartJoiner(
        std::move(cfg), service_identity_, target, &logging_app_);
    if (!started.ok()) return nullptr;
    host::LiveNodeHost* ptr = started->get();
    // Symmetric addressing: existing nodes learn where the joiner listens
    // so they can redial it after a link loss, not just answer its dials.
    for (auto& [nid, h] : hosts_) {
      h->AddPeer(id, "127.0.0.1:" + std::to_string(ptr->node_port()));
    }
    hosts_[id] = std::move(*started);
    return ptr;
  }

  bool TrustNode(const std::string& id, uint64_t timeout_ms = 10000) {
    json::Object args;
    args["node_id"] = id;
    if (!RunProposal("transition_node_to_trusted",
                     json::Value(std::move(args)), timeout_ms)) {
      return false;
    }
    // Same convergence condition as the simulator harness: every live node
    // has pruned to a single active configuration containing the joiner.
    return LiveWaitFor(
        [&] {
          host::LiveNodeHost* j = host(id);
          if (j == nullptr) return false;
          if (!j->WithNode([](node::Node* n) { return n->has_joined(); })) {
            return false;
          }
          for (auto& [nid, h] : hosts_) {
            bool ok = h->WithNode([&](node::Node* n) {
              if (n->retired()) return true;
              const auto& configs = n->raft().active_configs();
              return configs.size() == 1 &&
                     configs.front().nodes.count(id) != 0;
            });
            if (!ok) return false;
          }
          return true;
        },
        timeout_ms);
  }

  // Submits a proposal via live member clients and votes it through.
  bool RunProposal(const std::string& action, json::Value args,
                   uint64_t timeout_ms = 10000) {
    return ProposeAndAccept(
        consortium_.members.size(),
        [this](size_t i) -> node::ClientCore* {
          return MemberClient(i, gov_node_);
        },
        action, std::move(args), timeout_ms);
  }

  host::LiveNodeHost* host(const std::string& id) {
    auto it = hosts_.find(id);
    return it != hosts_.end() ? it->second.get() : nullptr;
  }
  std::map<std::string, std::unique_ptr<host::LiveNodeHost>>& hosts() {
    return hosts_;
  }

  // Hard-stops a node (host threads + enclave). Clients connected to it
  // see their connections die; peers redial until it returns.
  void Kill(const std::string& id) {
    DropClients();  // some may point at the dead node; cheap to rebuild
    hosts_.erase(id);
  }

  // Polls for a node that believes it is primary (highest view wins).
  std::string PrimaryId(uint64_t timeout_ms = 5000) {
    std::string primary;
    LiveWaitFor(
        [&] {
          uint64_t best_view = 0;
          primary.clear();
          for (auto& [nid, h] : hosts_) {
            auto [is_primary, view] = h->WithNode([](node::Node* n) {
              return std::make_pair(n->IsPrimary(), n->view());
            });
            if (is_primary && (primary.empty() || view > best_view)) {
              primary = nid;
              best_view = view;
            }
          }
          return !primary.empty();
        },
        timeout_ms);
    return primary;
  }

  host::LiveClient* UserClient(const std::string& user_id,
                               const std::string& node_id = "n0") {
    TestUser* user = users_.at(user_id).get();
    return ClientFor("client-" + user_id + "@" + node_id, node_id,
                     &user->key, user->cert);
  }

  host::LiveClient* MemberClient(size_t idx,
                                 const std::string& node_id = "n0") {
    auto& m = consortium_.members.at(idx);
    return ClientFor("client-" + m.id + "@" + node_id, node_id, &m.key,
                     m.cert);
  }

  void DropClients() { clients_.clear(); }

  // Waits until `seqno` is committed on all live nodes.
  bool WaitForCommitEverywhere(uint64_t seqno, uint64_t timeout_ms = 8000) {
    return LiveWaitFor(
        [&] {
          for (auto& [nid, h] : hosts_) {
            bool ok = h->WithNode([&](node::Node* n) {
              if (!n->has_joined() || !n->raft().InActiveConfig()) {
                return true;
              }
              return n->commit_seqno() >= seqno;
            });
            if (!ok) return false;
          }
          return true;
        },
        timeout_ms);
  }

 private:
  // The cached client `name`; made and connected to `node_id` on first
  // use (null if that fails).
  host::LiveClient* ClientFor(const std::string& name,
                              const std::string& node_id,
                              const crypto::KeyPair* key,
                              crypto::Certificate cert) {
    auto it = clients_.find(name);
    if (it != clients_.end()) return it->second.get();
    host::LiveNodeHost* h = host(node_id);
    if (h == nullptr) return nullptr;
    auto client = std::make_unique<host::LiveClient>(name, service_identity_,
                                                     key, std::move(cert));
    if (!client->Connect("127.0.0.1", h->rpc_port()).ok()) return nullptr;
    return clients_.emplace(name, std::move(client)).first->second.get();
  }

  Consortium consortium_;
  std::string gov_node_ = "n0";
  std::function<void(node::NodeConfig*)> config_tweak_;
  apps::LoggingApp logging_app_;
  crypto::PublicKeyBytes service_identity_{};
  std::map<std::string, std::unique_ptr<host::LiveNodeHost>> hosts_;
  std::map<std::string, std::unique_ptr<TestUser>> users_;
  std::map<std::string, std::unique_ptr<host::LiveClient>> clients_;
};

}  // namespace ccf::testing

#endif  // CCF_TESTS_LIVE_HARNESS_H_
