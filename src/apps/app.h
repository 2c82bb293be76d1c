// Application registry (DESIGN.md §14).
//
// Applications declare endpoints as EndpointDef values -- method, path,
// auth/execution metadata, JSON request/response schemas, handler -- and
// InstallEndpoint places them into the node's rpc::EndpointRegistry. The
// declared schemas drive both request validation (the node rejects bodies
// violating request_schema with a structured 400 before any KV transaction
// is opened) and the OpenAPI 3.0 document served at GET /app/api.
//
// AppRegistry composes several Applications into one, so a single node can
// serve e.g. logging + banking + SmallBank together (and the OpenAPI
// document covers them all).

#ifndef CCF_APPS_APP_H_
#define CCF_APPS_APP_H_

#include <string>
#include <vector>

#include "json/json.h"
#include "node/app.h"
#include "rpc/endpoints.h"

namespace ccf::apps {

// One declared endpoint. Aggregate-initialized with designated
// initializers at registration sites:
//
//   InstallEndpoint(registry, {
//       .method = "POST",
//       .path = "/app/log",
//       .summary = "Record a private message",
//       .auth = rpc::AuthPolicy::kUserCert,
//       .exec_parallel = true,
//       .request_schema = json::ObjectSchema({...}, {"id", "msg"}),
//       .handler = ...,
//   });
struct EndpointDef {
  std::string method;
  std::string path;
  std::string summary;
  rpc::AuthPolicy auth = rpc::AuthPolicy::kNoAuth;
  bool read_only = false;
  bool exec_parallel = false;
  // Null (default) means "no schema": the body is passed to the handler
  // unvalidated, and OpenAPI documents no requestBody/response content.
  json::Value request_schema{};
  json::Value response_schema{};
  rpc::EndpointHandler handler;
};

// Converts the declaration into an rpc::EndpointSpec (schemas become
// shared immutable values) and installs it.
void InstallEndpoint(rpc::EndpointRegistry* registry, EndpointDef def);

// Composes Applications; registration order is Add() order. Non-owning:
// callers keep the component apps alive for the node's lifetime, matching
// how single apps are already passed to node::Node.
class AppRegistry : public node::Application {
 public:
  AppRegistry& Add(node::Application* app) {
    apps_.push_back(app);
    return *this;
  }

  void RegisterEndpoints(rpc::EndpointRegistry* registry,
                         const node::NodeContext& node) override {
    for (node::Application* app : apps_) {
      app->RegisterEndpoints(registry, node);
    }
  }

 private:
  std::vector<node::Application*> apps_;
};

}  // namespace ccf::apps

#endif  // CCF_APPS_APP_H_
