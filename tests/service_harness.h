// End-to-end test harness: builds full CCF services (genesis + joiners +
// consortium + users) in the deterministic simulation.

#ifndef CCF_TESTS_SERVICE_HARNESS_H_
#define CCF_TESTS_SERVICE_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hex.h"
#include "gov/records.h"
#include "kv/snapshot.h"
#include "node/client.h"
#include "apps/logging.h"
#include "node/node.h"
#include "sim/invariants.h"

namespace ccf::testing {

inline node::NodeConfig FastNodeConfig(const std::string& id,
                                       uint64_t seed = 0) {
  node::NodeConfig cfg;
  cfg.node_id = id;
  cfg.seed = seed;
  cfg.raft.election_timeout_min_ms = 50;
  cfg.raft.election_timeout_max_ms = 100;
  cfg.raft.heartbeat_interval_ms = 10;
  cfg.raft.primary_quiesce_timeout_ms = 300;
  cfg.raft.seed = seed;
  cfg.signature_interval_txs = 5;
  cfg.signature_interval_ms = 30;
  cfg.snapshot_interval_txs = 50;
  return cfg;
}

struct Consortium {
  struct Member {
    std::string id;
    crypto::KeyPair key;
    crypto::Certificate cert;
  };
  std::vector<Member> members;

  explicit Consortium(int n) {
    for (int i = 0; i < n; ++i) {
      std::string id = "member" + std::to_string(i);
      crypto::KeyPair key =
          crypto::KeyPair::FromSeed(ToBytes("member-key-" + std::to_string(i)));
      crypto::Certificate cert =
          crypto::IssueCertificate(id, "member", key.public_key(), key, "");
      members.push_back({id, std::move(key), std::move(cert)});
    }
  }

  std::vector<node::MemberIdentity> Identities() const {
    std::vector<node::MemberIdentity> out;
    for (const Member& m : members) {
      out.push_back({m.id, m.cert.Serialize(), m.key.public_key()});
    }
    return out;
  }
};

struct TestUser {
  std::string id;
  crypto::KeyPair key;
  crypto::Certificate cert;

  explicit TestUser(const std::string& id)
      : id(id),
        key(crypto::KeyPair::FromSeed(ToBytes("user-key-" + id))),
        cert(crypto::IssueCertificate(id, "user", key.public_key(), key, "")) {
  }
};

// The logging app's write body: {"id": id, "msg": msg}.
inline json::Value LogBody(uint64_t id, const std::string& msg) {
  json::Object body;
  body["id"] = id;
  body["msg"] = msg;
  return json::Value(std::move(body));
}

// Submits {actions: [{name, args}]} as member 0 and votes yes with each
// member in turn until the proposal is accepted. `member(i)` is member i's
// client; a null client fails the flow.
inline bool ProposeAndAccept(
    size_t num_members,
    const std::function<node::ClientCore*(size_t)>& member,
    const std::string& action, json::Value args, uint64_t timeout_ms) {
  // Member i's signed POST, parsed; null unless it answered 200 + JSON.
  auto post = [&](size_t i, const std::string& path, json::Object body) {
    node::ClientCore* c = member(i);
    if (c == nullptr) return json::Value();
    auto resp = c->PostJsonSigned(path, body, timeout_ms);
    if (!resp.ok() || resp->status != 200) return json::Value();
    auto parsed = json::Parse(ToString(resp->body));
    return parsed.ok() ? std::move(*parsed) : json::Value();
  };
  json::Object act{{"name", action}, {"args", std::move(args)}};
  json::Object proposal{{"actions", json::Array{json::Value(std::move(act))}}};
  json::Value proposed =
      post(0, "/gov/propose", {{"proposal", std::move(proposal)}});
  std::string pid = proposed.GetString("proposal_id");
  std::string state = proposed.GetString("state");
  for (size_t i = 0; i < num_members && state == "Open"; ++i) {
    state = post(i, "/gov/vote",
                 {{"proposal_id", pid},
                  {"ballot",
                   "function vote(proposal, proposer_id) { return true; }"}})
                .GetString("state");
  }
  return state == "Accepted";
}

// Members submit their recovery shares to recovering node `r` (paper
// §5.2), pinning its new identity, one at a time until it reports the
// private state recovered. Returns how many shares that took; 0 if a
// submission failed or the shares ran out first.
inline size_t SubmitRecoveryShares(sim::Environment* env, node::Node* r,
                                   const Consortium& consortium) {
  for (size_t i = 0; i < consortium.members.size(); ++i) {
    const Consortium::Member& m = consortium.members[i];
    auto share = r->ExtractRecoveryShare(m.id, m.key);
    if (!share.ok()) return 0;
    node::Client client("recovery-" + m.id, env, r->service_identity(),
                        &m.key, m.cert);
    client.Connect(r->id());
    json::Object body;
    body["share"] = HexEncode(*share);
    auto resp = client.PostJsonSigned("/gov/recovery_share",
                                      json::Value(std::move(body)));
    if (!resp.ok() || resp->status != 200) return 0;
    auto parsed = json::Parse(ToString(resp->body));
    if (!parsed.ok()) return 0;
    if (parsed->GetBool("recovered")) return i + 1;
  }
  return 0;
}

// A full service under simulation: nodes, consortium, users, clients.
class ServiceHarness {
 public:
  explicit ServiceHarness(sim::EnvOptions env_options = {},
                          int num_members = 3)
      : env_(env_options), consortium_(num_members) {}

  sim::Environment& env() { return env_; }
  Consortium& consortium() { return consortium_; }

  // Benchmarks tweak node configs (TEE mode, signature cadence) before
  // nodes start.
  void SetConfigTweak(std::function<void(node::NodeConfig*)> tweak) {
    config_tweak_ = std::move(tweak);
  }

  // Starts the genesis node (n0) with the logging app.
  node::Node* StartGenesis(bool open_immediately = true,
                           node::Application* app = nullptr) {
    node::ServiceInit init;
    init.members = consortium_.Identities();
    init.open_immediately = open_immediately;
    for (auto& [id, user] : users_) {
      init.initial_users.emplace_back(id, user->cert.Serialize());
    }
    node::NodeConfig cfg = FastNodeConfig("n0");
    if (config_tweak_) config_tweak_(&cfg);
    auto n = node::Node::CreateGenesis(cfg, init,
                                       app != nullptr ? app : &logging_app_,
                                       &env_);
    node::Node* ptr = n.get();
    nodes_["n0"] = std::move(n);
    env_.Step(5);
    return ptr;
  }

  // Adds a user before genesis.
  TestUser* AddUser(const std::string& id) {
    users_[id] = std::make_unique<TestUser>(id);
    return users_[id].get();
  }

  // Starts node `id` as a joiner and drives governance to trust it.
  node::Node* JoinAndTrust(const std::string& id, uint64_t timeout_ms = 8000,
                           node::Application* app = nullptr) {
    node::Node* joiner = Join(id, app);
    if (joiner == nullptr) return nullptr;
    if (!env_.RunUntil([&] { return joiner->has_joined(); }, timeout_ms)) {
      return nullptr;
    }
    if (!TrustNode(id, timeout_ms)) return nullptr;
    return joiner;
  }

  // Starts node `id` as a joiner of the service through node `target`.
  node::Node* Join(const std::string& id, node::Application* app = nullptr,
                   const std::string& target = "n0") {
    node::NodeConfig cfg =
        FastNodeConfig(id, std::hash<std::string>{}(id) % 1000);
    if (config_tweak_) config_tweak_(&cfg);
    auto n = node::Node::CreateJoiner(
        cfg, IdentityOf(target), target,
        app != nullptr ? app : &logging_app_, &env_);
    node::Node* ptr = n.get();
    nodes_[id] = std::move(n);
    return ptr;
  }

  // Proposes transition_node_to_trusted (through node `via`) and votes it
  // through.
  bool TrustNode(const std::string& id, uint64_t timeout_ms = 8000,
                 const std::string& via = "n0") {
    json::Object args;
    args["node_id"] = id;
    auto outcome = RunProposal("transition_node_to_trusted",
                               json::Value(std::move(args)), timeout_ms, via);
    if (!outcome) return false;
    // Wait until the node participates and its reconfiguration has
    // committed everywhere: each live node prunes to a single active
    // configuration containing the joiner. Stopping at mere append would
    // leave the old configuration active, and a primary failure in that
    // window stalls elections on the old quorum (inherent to
    // reconfiguration, paper §4.4) -- not what these tests exercise.
    return env_.RunUntil(
        [&] {
          node::Node* n = node(id);
          if (n == nullptr || !n->has_joined()) return false;
          for (auto& [nid, peer] : nodes_) {
            if (!env_.IsUp(nid) || peer->retired()) continue;
            const auto& configs = peer->raft().active_configs();
            if (configs.size() != 1 || configs.front().nodes.count(id) == 0) {
              return false;
            }
          }
          return true;
        },
        timeout_ms);
  }

  // Submits a proposal through node `via` and votes it through.
  bool RunProposal(const std::string& action, json::Value args,
                   uint64_t timeout_ms = 8000, const std::string& via = "n0") {
    return ProposeAndAccept(
        consortium_.members.size(),
        [&](size_t i) -> node::ClientCore* { return MemberClient(i, via); },
        action, std::move(args), timeout_ms);
  }

  node::Node* node(const std::string& id) {
    auto it = nodes_.find(id);
    return it != nodes_.end() ? it->second.get() : nullptr;
  }
  std::map<std::string, std::unique_ptr<node::Node>>& nodes() {
    return nodes_;
  }

  node::Node* Primary() {
    node::Node* best = nullptr;
    for (auto& [id, n] : nodes_) {
      if (!env_.IsUp(id)) continue;
      if (n->IsPrimary() && (best == nullptr || n->view() > best->view())) {
        best = n.get();
      }
    }
    return best;
  }

  // A client for user `id`, connected to `node_id`.
  node::Client* UserClient(const std::string& user_id,
                           const std::string& node_id = "n0") {
    TestUser* user = users_.at(user_id).get();
    return ClientFor("client-" + user_id + "@" + node_id, node_id,
                     &user->key, user->cert);
  }

  node::Client* MemberClient(size_t idx, const std::string& node_id = "n0") {
    auto& m = consortium_.members.at(idx);
    return ClientFor("client-" + m.id + "@" + node_id, node_id, &m.key,
                     m.cert);
  }

  node::Client* AnonymousClient(const std::string& node_id = "n0") {
    return ClientFor("client-anon@" + node_id, node_id, nullptr,
                     std::nullopt);
  }

  void DropClients() { clients_.clear(); }

  // -------------------------------------------------------- invariants

  // Application-level convergence digest for a node: commit seqno, the
  // Merkle root over the committed prefix, and the committed KV state.
  static Bytes StateDigest(node::Node* n) {
    Bytes out;
    uint64_t commit = n->commit_seqno();
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<uint8_t>(commit >> (8 * i)));
    }
    auto root = n->tree().RootAt(commit);
    if (root.ok()) out.insert(out.end(), root->begin(), root->end());
    auto kv_digest =
        crypto::Sha256::Hash(kv::SerializeState(n->store().committed_state()));
    out.insert(out.end(), kv_digest.begin(), kv_digest.end());
    return out;
  }

  // Tracks a joined node in the invariant checker.
  void TrackNode(const std::string& id) {
    node::Node* n = node(id);
    if (n == nullptr || !n->has_joined()) return;
    checker_.Track(id, &n->raft(), [n] { return StateDigest(n); });
  }
  // Must be called before destroying a node the checker observes.
  void UntrackNode(const std::string& id) { checker_.Untrack(id); }

  // Wires the checker over every joined node and attaches it to the
  // environment (observes after every simulator step). Call TrackNode for
  // nodes that join later.
  sim::InvariantChecker& EnableInvariantChecker() {
    for (auto& [id, n] : nodes_) TrackNode(id);
    checker_.Attach(&env_);
    return checker_;
  }
  sim::InvariantChecker& checker() { return checker_; }

  // Waits until `seqno` is committed on all live, joined nodes.
  bool WaitForCommitEverywhere(uint64_t seqno, uint64_t timeout_ms = 8000) {
    return env_.RunUntil(
        [&] {
          for (auto& [id, n] : nodes_) {
            if (!env_.IsUp(id) || !n->has_joined()) continue;
            if (!n->raft().InActiveConfig()) continue;
            if (n->commit_seqno() < seqno) return false;
          }
          return true;
        },
        timeout_ms);
  }

 private:
  // The cached client `name`, connected to `node_id` when first made.
  node::Client* ClientFor(const std::string& name, const std::string& node_id,
                          const crypto::KeyPair* key,
                          std::optional<crypto::Certificate> cert) {
    std::unique_ptr<node::Client>& client = clients_[name];
    if (client == nullptr) {
      client = std::make_unique<node::Client>(name, &env_, IdentityOf(node_id),
                                              key, std::move(cert));
      client->Connect(node_id);
    }
    return client.get();
  }

  // The service identity node `id` pins (a recovered service has a new
  // one); n0's for a node not created yet.
  crypto::PublicKeyBytes IdentityOf(const std::string& id) {
    node::Node* n = node(id);
    return (n != nullptr ? n : nodes_.at("n0").get())->service_identity();
  }

  sim::Environment env_;
  Consortium consortium_;
  std::function<void(node::NodeConfig*)> config_tweak_;
  apps::LoggingApp logging_app_;
  std::map<std::string, std::unique_ptr<node::Node>> nodes_;
  std::map<std::string, std::unique_ptr<TestUser>> users_;
  std::map<std::string, std::unique_ptr<node::Client>> clients_;
  sim::InvariantChecker checker_;
};

}  // namespace ccf::testing

#endif  // CCF_TESTS_SERVICE_HARNESS_H_
