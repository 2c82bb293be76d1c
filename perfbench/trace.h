// Tracing for the benchmark's traced runs: spans recorded around calls
// into each layer's public functions, kept in memory and written out when
// the run ends.
//
// The replay takes requests sampled from a workload run (the real request
// and response bytes, the keys each touched) and pushes each one through
// the layers a request crosses inside a node, in path order:
//   tee.crossing   EnclaveBoundary::HostSend + EnclaveReceive of the record
//   rpc.open       ServerSession::OnRecord (STLS record open)
//   http.parse     http::RequestParser::Next
//   json.parse     json::Parse of the body
//   json.schema    json::SchemaValidate against the endpoint's schema
//   kv.commit      Store::BeginTx + Get/Put + CommitTx
//   kv.encrypt     TxEncryptor::Seal of the private write set
//   ledger.append  ledger::Ledger::Append
//   merkle.append  merkle::MerkleTree::Append
//   http.serialize http::Response::Serialize
//   rpc.seal       ServerSession::Seal (STLS record seal)
//   crypto.sign    KeyPair::Sign of a Merkle root
//   crypto.verify_batch  crypto::VerifyBatch of one interval's signatures
// Every layer span's parent is the sample's request span.

#ifndef CCF_PERFBENCH_TRACE_H_
#define CCF_PERFBENCH_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "http/http.h"
#include "json/json.h"
#include "tee/boundary.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  uint64_t Begin(const std::string& name, uint64_t parent = 0) {
    spans_.push_back(Span{name, spans_.size() + 1, parent, NowNs(), 0});
    return spans_.back().id;
  }
  void End(uint64_t id) { spans_[id - 1].end_ns = NowNs(); }

  template <typename F>
  auto Time(const std::string& name, uint64_t parent, F&& f) {
    uint64_t id = Begin(name, parent);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      End(id);
    } else {
      auto r = f();
      End(id);
      return r;
    }
  }

  // Self time of each span (duration minus the time its children cover),
  // in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const;
  // Writes every span as one JSON array (name, id, parent, start/end ns).
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// A key a sampled request touched, with the value it holds or writes.
struct KvAccess {
  std::string map;
  std::string key;
  std::string value;
  bool write = false;
};

struct Sample {
  ccf::http::Request request;
  ccf::http::Response response;
  std::vector<KvAccess> kv;
};

struct ReplayInput {
  ccf::tee::TeeMode tee_mode = ccf::tee::TeeMode::kVirtual;
  std::vector<Sample> samples;
  // Request schema per "METHOD /path" (response schema for body-less
  // requests), as published in the service's OpenAPI document.
  std::map<std::string, ccf::json::Value> schemas;
  // Every key the workload holds, loaded into the replay store first.
  std::vector<KvAccess> preload;
  // Signatures a backup verifies per batch (at least 1).
  size_t verify_batch_size = 1;
};

// Runs the replay (`passes` times over the samples), recording spans.
void ReplayLayers(const ReplayInput& in, int passes, Tracer* tracer);

}  // namespace perfbench

#endif  // CCF_PERFBENCH_TRACE_H_
