// Endpoint framework (paper §3.1).
//
// "Each CCF endpoint declares how callers should be authenticated. Each
// invocation is first checked by CCF against these declared policies and
// the application logic is only called if the caller passes the checks."
//
// Handlers execute inside a KV transaction; CCF commits the transaction
// after the handler returns and attaches the transaction ID to the
// response (§3.1). Read-only endpoints can be served by any node without
// forwarding (§4.3).

#ifndef CCF_RPC_ENDPOINTS_H_
#define CCF_RPC_ENDPOINTS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/cert.h"
#include "http/http.h"
#include "json/json.h"
#include "kv/store.h"
#include "observe/metrics.h"

namespace ccf::rpc {

// Declarative caller-authentication policy (paper §3.1).
enum class AuthPolicy {
  kNoAuth,       // anyone, including anonymous sessions
  kUserCert,     // session cert must be a registered user
  kMemberCert,   // session cert must be a registered consortium member
  kAnyCert,      // any registered user or member
};

struct CallerIdentity {
  // Fingerprint of the session certificate ("" when anonymous).
  std::string id;
  std::optional<crypto::Certificate> cert;
  bool is_user = false;
  bool is_member = false;
};

class EndpointContext {
 public:
  EndpointContext(kv::Tx* tx, const http::Request* request,
                  CallerIdentity caller)
      : tx_(tx), request_(request), caller_(std::move(caller)) {}

  kv::Tx& tx() { return *tx_; }
  const http::Request& request() const { return *request_; }
  const CallerIdentity& caller() const { return caller_; }

  // Parses the request body as JSON (cached).
  Result<json::Value> Params() const;

  // Query-string parameter `name` (percent-decoded; empty when absent).
  std::string Param(const std::string& name) const;
  // Same, parsed as a decimal u64 (0 when absent or malformed).
  uint64_t ParamU64(const std::string& name) const;

  http::Response& response() { return response_; }
  void SetJsonResponse(int status, const json::Value& body);
  // Emits the standard error envelope {"error": {"code", "message"}} with
  // the code derived from the status (DefaultErrorCode below).
  void SetError(int status, const std::string& message);
  // Same, with an explicit machine-readable code.
  void SetError(int status, const std::string& code,
                const std::string& message);

  // Attaches application claims, covered by the receipt (paper §3.5).
  void SetClaims(ByteSpan claims) { tx_->SetClaims({claims.begin(), claims.end()}); }

 private:
  kv::Tx* tx_;
  const http::Request* request_;
  CallerIdentity caller_;
  http::Response response_;
};

using EndpointHandler = std::function<void(EndpointContext*)>;

struct EndpointSpec {
  EndpointHandler handler;
  AuthPolicy auth = AuthPolicy::kNoAuth;
  // Read-only endpoints execute locally on any node; others are forwarded
  // to the primary (paper §4.3).
  bool read_only = false;
  // Eligible for batched optimistic execution (DESIGN.md §12): the handler
  // touches only its EndpointContext (tx, request, response) and shared
  // *committed* state reachable through const reads, so concurrent
  // invocations against one immutable store snapshot are safe. Handlers
  // that mutate node-level caches or registries (e.g. historical range
  // requests) must leave this unset and run serially.
  bool exec_parallel = false;
  // One-line human summary, surfaced in the generated OpenAPI document.
  std::string summary{};
  // Optional JSON schemas (json/schema.h subset). When request_schema is
  // set, the node validates the parsed request body against it and rejects
  // violations with a structured 400 *before* a KV transaction is opened.
  // response_schema is documentation-only (embedded in OpenAPI); responses
  // are not validated on the hot path. Shared pointers because specs are
  // copied into per-request resolution state and schemas can be large.
  std::shared_ptr<const json::Value> request_schema{};
  std::shared_ptr<const json::Value> response_schema{};
};

class EndpointRegistry {
 public:
  void Install(const std::string& method, const std::string& path,
               EndpointSpec spec);
  const EndpointSpec* Find(const std::string& method,
                           const std::string& path) const;

  // Lists installed "METHOD path" keys (for the built-in /node/api listing).
  std::vector<std::string> List() const;

  // Methods installed for `path`, sorted (std::map order). Empty when the
  // path is unknown -- lets dispatch distinguish 404 (no such path) from
  // 405 (path exists, method doesn't; the list becomes the Allow: header).
  std::vector<std::string> MethodsForPath(const std::string& path) const;

  // Visits every endpoint in deterministic (sorted-key) order; the OpenAPI
  // generator is built on this.
  void ForEach(const std::function<void(const std::string& method,
                                        const std::string& path,
                                        const EndpointSpec& spec)>& fn) const;

 private:
  std::map<std::string, EndpointSpec> endpoints_;  // "METHOD path"
};

// Machine-readable code for the standard error envelope, derived from the
// HTTP status: 400 InvalidInput, 401 Unauthorized, 403 Forbidden,
// 404 ResourceNotFound, 405 MethodNotAllowed, 409 Conflict,
// 500 InternalError, 503 ServiceUnavailable; otherwise "Error".
std::string DefaultErrorCode(int status);

// Builds the standard error body {"error": {"code", "message"}}.
json::Value ErrorBody(const std::string& code, const std::string& message);

// Builds a complete error http::Response carrying the standard envelope,
// for dispatch-layer rejections that happen outside an EndpointContext.
http::Response ErrorResponse(int status, const std::string& code,
                             const std::string& message);

// Validates `body` against spec.request_schema (no-op when unset).
// `body` carries the parse result of the raw request body: a parse
// failure yields 400/InvalidRequestBody, a schema violation
// 400/InvalidInput. Returns the ready-to-send 400 response on rejection.
std::optional<http::Response> CheckRequestSchema(
    const EndpointSpec& spec, const Result<json::Value>& body);

// Records one executed request into `reg`: a per-endpoint request counter
// ("rpc.requests.<METHOD path>"), a status-class counter ("rpc.status.2xx"
// etc.), and a per-endpoint latency histogram ("rpc.latency_us.<METHOD
// path>"). Latency is wall-clock and write-only -- it never feeds back
// into execution, so deterministic runs are unaffected by its variance.
void RecordEndpointMetrics(observe::Registry* reg, const std::string& method,
                           const std::string& path, int status,
                           uint64_t latency_us);

}  // namespace ccf::rpc

#endif  // CCF_RPC_ENDPOINTS_H_
