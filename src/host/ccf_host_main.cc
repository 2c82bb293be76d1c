// ccf_host: runs the SAME enclave node under either driver.
//
//   --mode=sim   in-process deterministic simulation (smoke demo): one
//                genesis node, one client, a few logging writes.
//   --mode=live  real host: TCP listeners, epoll IO thread, wall-clock
//                ticker (DESIGN.md §13). Runs until SIGINT/SIGTERM.
//
// Live usage (one command per node, each wrapped over two lines):
//   ccf_host --mode=live --node-id=n0 --rpc-port=8000 --node-port=8500
//            --genesis
//   ccf_host --mode=live --node-id=n1 --rpc-port=8001 --node-port=8501
//            --peer n0=127.0.0.1:8500 --join=n0 --service-identity=<hex>
//
// The genesis node prints its service identity; joiners pin it. The demo
// consortium/user keys are the deterministic test seeds — this binary is
// a development harness, not a production deployment.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/hex.h"
#include "common/logging.h"
#include "host/live_node.h"
#include "node/client.h"
#include "apps/logging.h"
#include "node/node.h"
#include "sim/environment.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

using namespace ccf;

node::NodeConfig DefaultConfig(const std::string& id) {
  node::NodeConfig cfg;
  cfg.node_id = id;
  cfg.seed = std::hash<std::string>{}(id) % 100000;
  cfg.raft.seed = cfg.seed;
  return cfg;
}

node::ServiceInit DemoServiceInit() {
  node::ServiceInit init;
  crypto::KeyPair member_key =
      crypto::KeyPair::FromSeed(ToBytes("member-key-0"));
  crypto::Certificate member_cert = crypto::IssueCertificate(
      "member0", "member", member_key.public_key(), member_key, "");
  init.members.push_back(
      {"member0", member_cert.Serialize(), member_key.public_key()});
  crypto::KeyPair user_key =
      crypto::KeyPair::FromSeed(ToBytes("user-key-user0"));
  crypto::Certificate user_cert = crypto::IssueCertificate(
      "user0", "user", user_key.public_key(), user_key, "");
  init.initial_users.emplace_back("user0", user_cert.Serialize());
  init.open_immediately = true;
  return init;
}

int RunSim() {
  sim::Environment env;
  apps::LoggingApp app;
  auto node =
      node::Node::CreateGenesis(DefaultConfig("n0"), DemoServiceInit(), &app,
                                &env);
  env.Step(200);  // let n0 elect itself

  crypto::KeyPair user_key =
      crypto::KeyPair::FromSeed(ToBytes("user-key-user0"));
  crypto::Certificate user_cert = crypto::IssueCertificate(
      "user0", "user", user_key.public_key(), user_key, "");
  node::Client client("client-user0", &env, node->service_identity(),
                      &user_key, user_cert);
  client.Connect("n0");
  for (int i = 0; i < 10; ++i) {
    json::Object body;
    body["id"] = static_cast<uint64_t>(1);
    body["msg"] = "sim entry " + std::to_string(i);
    auto resp = client.PostJson("/app/log", json::Value(std::move(body)));
    if (!resp.ok() || resp->status != 200) {
      std::fprintf(stderr, "sim write %d failed\n", i);
      return 1;
    }
  }
  auto read = client.Get("/app/log?id=1");
  if (!read.ok() || read->status != 200) {
    std::fprintf(stderr, "sim read failed\n");
    return 1;
  }
  std::printf("sim mode: 10 writes + read ok, commit=%llu\n",
              static_cast<unsigned long long>(node->commit_seqno()));
  return 0;
}

int RunLive(int argc, char** argv) {
  host::LiveNodeConfig cfg;
  std::string node_id = "n0";
  bool genesis = false;
  std::string join_target;
  std::string service_identity_hex;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&arg](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--node-id=")) {
      node_id = v;
    } else if (const char* v = val("--rpc-port=")) {
      cfg.transport.rpc_port = static_cast<uint16_t>(std::atoi(v));
    } else if (const char* v = val("--node-port=")) {
      cfg.transport.node_port = static_cast<uint16_t>(std::atoi(v));
    } else if (const char* v = val("--bind=")) {
      cfg.transport.bind_host = v;
    } else if (arg == "--peer" && i + 1 < argc) {
      std::string spec = argv[++i];  // id=host:port
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "bad --peer %s\n", spec.c_str());
        return 2;
      }
      cfg.transport.peers[spec.substr(0, eq)] = spec.substr(eq + 1);
    } else if (arg == "--genesis") {
      genesis = true;
    } else if (const char* v = val("--join=")) {
      join_target = v;
    } else if (const char* v = val("--service-identity=")) {
      service_identity_hex = v;
    } else if (const char* v = val("--tick-ms=")) {
      cfg.tick_interval_ms = static_cast<uint64_t>(std::atoi(v));
    } else if (const char* v = val("--mode=")) {
      (void)v;  // handled in main
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  cfg.node = DefaultConfig(node_id);

  Result<std::unique_ptr<host::LiveNodeHost>> started =
      Status::InvalidArgument("pass --genesis or --join=<node>");
  apps::LoggingApp app;
  if (genesis) {
    started = host::LiveNodeHost::StartGenesis(std::move(cfg),
                                               DemoServiceInit(), &app);
  } else if (!join_target.empty()) {
    auto raw = HexDecode(service_identity_hex);
    if (!raw.ok() || raw->size() != std::tuple_size<crypto::PublicKeyBytes>()) {
      std::fprintf(stderr, "--join requires --service-identity=<hex>\n");
      return 2;
    }
    crypto::PublicKeyBytes identity{};
    std::copy(raw->begin(), raw->end(), identity.begin());
    started = host::LiveNodeHost::StartJoiner(std::move(cfg), identity,
                                              join_target, &app);
  }
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  auto& live = *started;
  std::string identity_hex = live->WithNode([](node::Node* n) {
    auto id = n->service_identity();
    return HexEncode(ByteSpan(id.data(), id.size()));
  });
  std::printf("%s live: rpc=%u node=%u service-identity=%s\n",
              live->node_id().c_str(), live->rpc_port(), live->node_port(),
              identity_hex.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  uint64_t commit = live->WithNode(
      [](node::Node* n) { return n->commit_seqno(); });
  live->Stop();
  std::printf("%s stopped, commit=%llu\n", live->node_id().c_str(),
              static_cast<unsigned long long>(commit));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "live";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mode=", 7) == 0) mode = argv[i] + 7;
  }
  if (mode == "sim") return RunSim();
  if (mode == "live") return RunLive(argc, argv);
  std::fprintf(stderr, "unknown --mode=%s (sim|live)\n", mode.c_str());
  return 2;
}
