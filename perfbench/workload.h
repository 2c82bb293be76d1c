// Request generation and the correctness oracle shared by every workload.
//
// Each session draws its requests from its own DRBG seeded from the run's
// --seed, so the same seed replays the same request stream. The oracle
// keeps every acknowledged write with the transaction seqno the service
// gave it; ordering by seqno reproduces the service's serial order, from
// which the expected final state follows.

#ifndef CCF_PERFBENCH_WORKLOAD_H_
#define CCF_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/workload.h"
#include "common/status.h"
#include "crypto/hmac.h"
#include "http/http.h"
#include "json/json.h"

namespace perfbench {

enum class Kind { kLogWrite, kLogRead, kSmallBank };

inline constexpr uint64_t kLogIds = 1000;     // paper §7: ids 0..999
inline constexpr size_t kMsgChars = 20;       // paper §7: 20-char messages
inline constexpr int64_t kAccounts = 100;
inline constexpr double kZipfSkew = 0.9;
inline constexpr int64_t kInitialBalance = 10000;  // savings and checking

enum class Op {
  kLogWrite,
  kLogRead,
  kTransactSavings,
  kDepositChecking,
  kSendPayment,
  kWriteCheck,
  kAmalgamate,
  kBalance,
};

struct Req {
  Op op = Op::kLogWrite;
  int64_t a = 0;  // log id, or first account
  int64_t b = 0;  // second account
  int64_t amount = 0;
  std::string msg;  // log writes
  ccf::http::Request http;
};

// The message the log preload stores under `id`.
std::string PreloadMsg(uint64_t id);
ccf::http::Request LogWriteRequest(uint64_t id, const std::string& msg);

class RequestGen {
 public:
  RequestGen(Kind kind, uint64_t seed, int session);
  Req Next();

 private:
  Kind kind_;
  int session_;
  uint64_t seq_ = 0;
  ccf::crypto::Drbg drbg_;
  std::shared_ptr<ccf::apps::ZipfianSampler> zipf_;
};

// The JSON body of a 200 response; an error for anything else.
ccf::Result<ccf::json::Value> JsonBody(
    const ccf::Result<ccf::http::Response>& r);

// Schema per "METHOD /path" from the service's OpenAPI document: the
// request body's, or for body-less requests the 200 response's.
std::map<std::string, ccf::json::Value> EndpointSchemas(
    const ccf::Result<ccf::json::Value>& openapi);

enum class Outcome { kOk, kAppReject, kFailed };

// Failures: transport errors, 5xx, and 409 from OCC retry exhaustion.
// SmallBank's 409 insufficient-funds rejections are application
// outcomes. Any other 4xx is a failure too.
Outcome Classify(const Req& req, const ccf::Result<ccf::http::Response>& r);

class Oracle {
 public:
  // Records a response; returns false when the response itself is wrong
  // (a read returning something other than what was stored).
  bool OnResponse(const Req& req, const ccf::http::Response& resp,
                  Outcome outcome);
  // A write whose outcome is unknown (transport failure, timeout).
  void OnUnknown(const Req& req);

  uint64_t max_acked_seqno() const { return max_acked_seqno_; }

  // The acknowledged write that set a log id's final value.
  struct LogWrite {
    uint64_t view = 0;
    uint64_t seqno = 0;
    std::string msg;
  };
  // Log ids whose final value is known (no write to them had an unknown
  // outcome): id -> the acknowledged write with the highest seqno.
  std::map<uint64_t, LogWrite> ExpectedLog() const;
  // Every acknowledged SmallBank write applied in seqno order: the
  // expected savings + checking per account, and the net of the
  // acknowledged deposits and withdrawals.
  struct SmallBankState {
    std::map<int64_t, int64_t> balances;
    int64_t net = 0;
  };
  SmallBankState ExpectedSmallBank() const;

  std::string first_error() const { return first_error_; }

 private:
  struct Acked {
    uint64_t view;
    uint64_t seqno;
    Req req;
  };
  std::vector<Acked> writes_;
  std::set<uint64_t> uncertain_ids_;
  std::map<uint64_t, ccf::Bytes> read_bodies_;  // validated read responses
  uint64_t max_acked_seqno_ = 0;
  std::string first_error_;
};

}  // namespace perfbench

#endif  // CCF_PERFBENCH_WORKLOAD_H_
