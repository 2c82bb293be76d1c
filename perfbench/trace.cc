#include "trace.h"

#include <cstdio>
#include <fstream>

#include "common/bytes.h"
#include "crypto/cert.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sign.h"
#include "json/schema.h"
#include "kv/encryptor.h"
#include "kv/store.h"
#include "ledger/ledger.h"
#include "merkle/merkle.h"
#include "merkle/receipt.h"
#include "rpc/session.h"

namespace perfbench {

using namespace ccf;

std::map<std::string, std::vector<double>> Tracer::SelfTimesUs() const {
  std::vector<uint64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    uint64_t dur = s.end_ns - s.start_ns;
    uint64_t self = dur > child_ns[s.id] ? dur - child_ns[s.id] : 0;
    out[s.name].push_back(static_cast<double>(self) / 1000.0);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

namespace {

// An established STLS session pair, handshaken in memory.
struct SessionPair {
  crypto::KeyPair service_key = crypto::KeyPair::FromSeed(ToBytes("replay-service"));
  crypto::KeyPair node_key = crypto::KeyPair::FromSeed(ToBytes("replay-node"));
  crypto::KeyPair user_key = crypto::KeyPair::FromSeed(ToBytes("replay-user"));
  crypto::Drbg server_drbg{"replay-server", 0};
  crypto::Drbg client_drbg{"replay-client", 0};
  std::unique_ptr<rpc::ServerSession> server;
  std::unique_ptr<rpc::ClientSession> client;

  bool Handshake() {
    crypto::Certificate node_cert = crypto::IssueCertificate(
        "n0", "node", node_key.public_key(), service_key, "service");
    crypto::Certificate user_cert = crypto::IssueCertificate(
        "user", "user", user_key.public_key(), user_key, "");
    server = std::make_unique<rpc::ServerSession>(&node_key, node_cert,
                                                  &server_drbg);
    client = std::make_unique<rpc::ClientSession>(
        service_key.public_key(), &user_key, user_cert, &client_drbg);
    Bytes to_server = client->Start();
    for (int round = 0; round < 4; ++round) {
      auto s = server->OnRecord(to_server);
      if (!s.ok()) return false;
      if (s->to_send.empty()) break;
      auto c = client->OnRecord(s->to_send);
      if (!c.ok()) return false;
      to_server = c->to_send;
      if (to_server.empty()) break;
    }
    return server->established() && client->established();
  }
};

std::string SchemaKey(const http::Request& req) {
  return req.method + " " + req.PathOnly();
}

}  // namespace

void ReplayLayers(const ReplayInput& in, int passes, Tracer* tracer) {
  SessionPair sessions;
  if (!sessions.Handshake()) {
    std::fprintf(stderr, "replay: in-memory STLS handshake failed\n");
    return;
  }
  tee::EnclaveBoundary boundary(in.tee_mode);

  kv::Store store;
  {
    kv::Tx tx = store.BeginTx();
    for (const KvAccess& a : in.preload) {
      tx.Handle(a.map)->PutStr(a.key, a.value);
    }
    (void)store.CommitTx(&tx);
  }
  crypto::Drbg drbg("replay-ledger-secret", 0);
  kv::TxEncryptor encryptor(kv::LedgerSecret::Generate(&drbg));
  ledger::Ledger ledger;
  merkle::MerkleTree tree;
  crypto::KeyPair signer = crypto::KeyPair::FromSeed(ToBytes("replay-signer"));

  // One interval's signatures for the batch verify.
  std::vector<crypto::Sha256Digest> roots;
  std::vector<crypto::SignatureBytes> sigs;
  for (size_t i = 0; i < std::max<size_t>(1, in.verify_batch_size); ++i) {
    roots.push_back(crypto::Sha256::Hash(ToBytes("root-" + std::to_string(i))));
    sigs.push_back(signer.Sign(roots.back()));
  }
  std::vector<crypto::BatchVerifyItem> batch;
  for (size_t i = 0; i < roots.size(); ++i) {
    batch.push_back({ByteSpan(signer.public_key().data(), signer.public_key().size()),
                     ByteSpan(roots[i].data(), roots[i].size()),
                     ByteSpan(sigs[i].data(), sigs[i].size())});
  }
  crypto::Drbg verify_drbg("replay-verify", 0);

  uint64_t seqno = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < in.samples.size(); ++i) {
      const Sample& s = in.samples[i];
      uint64_t req_span = tracer->Begin("request");

      Bytes wire = s.request.Serialize();
      auto record = sessions.client->Seal(wire);
      if (!record.ok()) break;

      Bytes crossed;
      tracer->Time("tee.crossing", req_span, [&] {
        uint32_t type = 0;
        boundary.HostSend(1, *record);
        boundary.EnclaveReceive(&type, &crossed);
      });
      auto opened = tracer->Time("rpc.open", req_span, [&] {
        return sessions.server->OnRecord(crossed);
      });
      if (!opened.ok() || opened->app_data.empty()) break;

      http::RequestParser parser;
      auto parsed_req = tracer->Time("http.parse", req_span, [&] {
        for (const Bytes& d : opened->app_data) parser.Feed(d);
        return parser.Next();
      });
      if (!parsed_req.ok() || !parsed_req->has_value()) break;

      // Requests with a body parse and validate it; body-less reads are
      // charged the JSON work of their response body instead.
      const Bytes& body = s.request.body.empty() ? s.response.body : s.request.body;
      auto value = tracer->Time("json.parse", req_span,
                                [&] { return json::Parse(ToString(body)); });
      auto schema_it = in.schemas.find(SchemaKey(s.request));
      if (value.ok() && schema_it != in.schemas.end()) {
        tracer->Time("json.schema", req_span, [&] {
          return json::SchemaValidate(schema_it->second, *value);
        });
      }

      // The sample's transaction; reads replay the write that stored what
      // they read, so every sample seals, appends and hashes one entry.
      auto commit = tracer->Time("kv.commit", req_span, [&] {
        kv::Tx tx = store.BeginTx();
        for (const KvAccess& a : s.kv) {
          kv::MapHandle* h = tx.Handle(a.map);
          (void)h->GetStr(a.key);
          if (a.write) h->PutStr(a.key, a.value);
        }
        return store.CommitTx(&tx);
      });
      kv::WriteSet ws;
      if (commit.ok() && !commit->write_set.empty()) {
        ws = commit->write_set;
      } else {
        for (const KvAccess& a : s.kv) {
          ws.maps[a.map][ToBytes(a.key)] = ToBytes(a.value);
        }
      }
      ++seqno;
      ledger::Entry entry;
      entry.view = 2;
      entry.seqno = seqno;
      entry.public_ws = ws.SerializePublic();
      Bytes private_plain = ws.SerializePrivate();
      auto public_digest = crypto::Sha256::Hash(entry.public_ws);
      entry.private_sealed = tracer->Time("kv.encrypt", req_span, [&] {
        return encryptor.Seal(entry.view, seqno, private_plain, public_digest);
      });
      Bytes leaf = merkle::TransactionLeafContent(
          entry.view, seqno, entry.WriteSetDigest(), entry.claims_digest);
      tracer->Time("ledger.append", req_span,
                   [&] { return ledger.Append(std::move(entry)); });
      tracer->Time("merkle.append", req_span, [&] { tree.Append(leaf); });

      Bytes resp_wire = tracer->Time("http.serialize", req_span,
                                     [&] { return s.response.Serialize(); });
      tracer->Time("rpc.seal", req_span,
                   [&] { return sessions.server->Seal(resp_wire); });
      auto root = tree.Root();
      tracer->Time("crypto.sign", req_span, [&] { return signer.Sign(root); });
      // Batch verification costs ~100x a request's other layers: sample it
      // on every 16th request only.
      if (i % 16 == 0) {
        tracer->Time("crypto.verify_batch", req_span, [&] {
          return crypto::VerifyBatch(batch, &verify_drbg);
        });
      }
      tracer->End(req_span);
    }
  }
}

}  // namespace perfbench
