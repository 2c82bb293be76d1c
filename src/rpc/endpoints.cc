#include "rpc/endpoints.h"

#include <cstdlib>

#include "json/schema.h"

namespace ccf::rpc {

Result<json::Value> EndpointContext::Params() const {
  if (request_->body.empty()) return json::Value(json::Object{});
  return json::Parse(ToString(request_->body));
}

std::string EndpointContext::Param(const std::string& name) const {
  return request_->QueryParam(name);
}

uint64_t EndpointContext::ParamU64(const std::string& name) const {
  return std::strtoull(Param(name).c_str(), nullptr, 10);
}

void EndpointContext::SetJsonResponse(int status, const json::Value& body) {
  response_.status = status;
  response_.headers["content-type"] = "application/json";
  response_.body = ToBytes(body.Dump());
}

void EndpointContext::SetError(int status, const std::string& message) {
  SetError(status, DefaultErrorCode(status), message);
}

void EndpointContext::SetError(int status, const std::string& code,
                               const std::string& message) {
  SetJsonResponse(status, ErrorBody(code, message));
}

void EndpointRegistry::Install(const std::string& method,
                               const std::string& path, EndpointSpec spec) {
  endpoints_[method + " " + path] = std::move(spec);
}

const EndpointSpec* EndpointRegistry::Find(const std::string& method,
                                           const std::string& path) const {
  auto it = endpoints_.find(method + " " + path);
  return it != endpoints_.end() ? &it->second : nullptr;
}

std::vector<std::string> EndpointRegistry::List() const {
  std::vector<std::string> out;
  out.reserve(endpoints_.size());
  for (const auto& [key, spec] : endpoints_) out.push_back(key);
  return out;
}

std::vector<std::string> EndpointRegistry::MethodsForPath(
    const std::string& path) const {
  std::vector<std::string> out;
  for (const auto& [key, spec] : endpoints_) {
    size_t space = key.find(' ');
    if (space != std::string::npos && key.compare(space + 1, std::string::npos,
                                                  path) == 0) {
      out.push_back(key.substr(0, space));
    }
  }
  return out;
}

void EndpointRegistry::ForEach(
    const std::function<void(const std::string&, const std::string&,
                             const EndpointSpec&)>& fn) const {
  for (const auto& [key, spec] : endpoints_) {
    size_t space = key.find(' ');
    if (space == std::string::npos) continue;
    fn(key.substr(0, space), key.substr(space + 1), spec);
  }
}

std::string DefaultErrorCode(int status) {
  switch (status) {
    case 400: return "InvalidInput";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "ResourceNotFound";
    case 405: return "MethodNotAllowed";
    case 409: return "Conflict";
    case 500: return "InternalError";
    case 503: return "ServiceUnavailable";
    default: return "Error";
  }
}

json::Value ErrorBody(const std::string& code, const std::string& message) {
  json::Object inner;
  inner["code"] = code;
  inner["message"] = message;
  json::Object body;
  body["error"] = json::Value(std::move(inner));
  return json::Value(std::move(body));
}

http::Response ErrorResponse(int status, const std::string& code,
                             const std::string& message) {
  http::Response resp;
  resp.status = status;
  resp.headers["content-type"] = "application/json";
  resp.body = ToBytes(ErrorBody(code, message).Dump());
  return resp;
}

std::optional<http::Response> CheckRequestSchema(
    const EndpointSpec& spec, const Result<json::Value>& body) {
  if (spec.request_schema == nullptr) return std::nullopt;
  if (!body.ok()) {
    return ErrorResponse(400, "InvalidRequestBody",
                         "request body is not valid JSON: " +
                             body.status().message());
  }
  Status valid = json::SchemaValidate(*spec.request_schema, *body);
  if (!valid.ok()) {
    return ErrorResponse(400, "InvalidInput",
                         "request body violates schema: " + valid.message());
  }
  return std::nullopt;
}

void RecordEndpointMetrics(observe::Registry* reg, const std::string& method,
                           const std::string& path, int status,
                           uint64_t latency_us) {
  if (reg == nullptr) return;
  std::string key = method + " " + path;
  observe::Counter* requests = reg->GetCounter("rpc.requests." + key);
  if (requests != nullptr) requests->Inc();
  const char* klass = "other";
  if (status >= 200 && status < 300) klass = "2xx";
  else if (status >= 300 && status < 400) klass = "3xx";
  else if (status >= 400 && status < 500) klass = "4xx";
  else if (status >= 500 && status < 600) klass = "5xx";
  observe::Counter* by_status =
      reg->GetCounter(std::string("rpc.status.") + klass);
  if (by_status != nullptr) by_status->Inc();
  observe::Histogram* latency = reg->GetHistogram("rpc.latency_us." + key);
  if (latency != nullptr) latency->Record(latency_us);
}

}  // namespace ccf::rpc
