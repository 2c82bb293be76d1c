#include "gov/constitution.h"

#include "kv/tables.h"

namespace ccf::gov {

using script::Interpreter;
using script::NativeFn;
using script::Value;

void BindKvNatives(Interpreter* interp, kv::Tx* tx, bool read_only) {
  auto handle = [tx](const Value& map) { return tx->Handle(map.AsString()); };

  interp->SetGlobal(
      "kv_get", Value(NativeFn([handle](std::vector<Value>& args)
                                   -> Result<Value> {
        if (args.size() != 2 || !args[0].is_string() || !args[1].is_string()) {
          return Status::InvalidArgument("kv_get(map, key)");
        }
        auto v = handle(args[0])->GetStr(args[1].AsString());
        if (!v.has_value()) return Value();
        return Value(*v);
      })));
  interp->SetGlobal(
      "kv_has", Value(NativeFn([handle](std::vector<Value>& args)
                                   -> Result<Value> {
        if (args.size() != 2 || !args[0].is_string() || !args[1].is_string()) {
          return Status::InvalidArgument("kv_has(map, key)");
        }
        return Value(handle(args[0])->HasStr(args[1].AsString()));
      })));
  interp->SetGlobal(
      "kv_size", Value(NativeFn([handle](std::vector<Value>& args)
                                    -> Result<Value> {
        if (args.size() != 1 || !args[0].is_string()) {
          return Status::InvalidArgument("kv_size(map)");
        }
        return Value(handle(args[0])->Size());
      })));
  interp->SetGlobal(
      "kv_foreach",
      Value(NativeFn([handle, interp](std::vector<Value>& args)
                         -> Result<Value> {
        if (args.size() != 2 || !args[0].is_string() ||
            !args[1].is_callable()) {
          return Status::InvalidArgument("kv_foreach(map, fn)");
        }
        Status status = Status::Ok();
        handle(args[0])->Foreach([&](const Bytes& k, const Bytes& v) {
          auto r = interp->CallValue(args[1],
                                     {Value(ToString(k)), Value(ToString(v))});
          if (!r.ok()) {
            status = r.status();
            return false;
          }
          // Returning false stops iteration.
          return !(r->is_bool() && !r->AsBool());
        });
        RETURN_IF_ERROR(status);
        return Value();
      })));

  auto mutating_guard = [read_only]() -> Status {
    if (read_only) {
      return Status::PermissionDenied("kv: write from read-only context");
    }
    return Status::Ok();
  };
  interp->SetGlobal(
      "kv_put",
      Value(NativeFn([handle, mutating_guard](std::vector<Value>& args)
                         -> Result<Value> {
        RETURN_IF_ERROR(mutating_guard());
        if (args.size() != 3 || !args[0].is_string() || !args[1].is_string() ||
            !args[2].is_string()) {
          return Status::InvalidArgument("kv_put(map, key, value)");
        }
        handle(args[0])->PutStr(args[1].AsString(), args[2].AsString());
        return Value();
      })));
  interp->SetGlobal(
      "kv_remove",
      Value(NativeFn([handle, mutating_guard](std::vector<Value>& args)
                         -> Result<Value> {
        RETURN_IF_ERROR(mutating_guard());
        if (args.size() != 2 || !args[0].is_string() || !args[1].is_string()) {
          return Status::InvalidArgument("kv_remove(map, key)");
        }
        handle(args[0])->RemoveStr(args[1].AsString());
        return Value();
      })));
  interp->SetGlobal("fail",
                    Value(NativeFn([](std::vector<Value>& args)
                                       -> Result<Value> {
                      std::string msg = "constitution failure";
                      if (!args.empty()) {
                        ASSIGN_OR_RETURN(msg, args[0].ToDisplayString());
                      }
                      return Status::FailedPrecondition(msg);
                    })));
}

namespace {

// Heap-allocated: natives capture the Interpreter pointer, so it must not
// move after binding.
Result<std::unique_ptr<Interpreter>> LoadedEngine(const std::string& source,
                                                  kv::Tx* tx,
                                                  bool read_only) {
  auto interp = std::make_unique<Interpreter>();
  BindKvNatives(interp.get(), tx, read_only);
  ASSIGN_OR_RETURN(auto program, script::Compile(source));
  auto run = interp->Run(program);
  RETURN_IF_ERROR(run.status());
  return interp;
}

}  // namespace

Result<std::string> ConstitutionEngine::CurrentSource(kv::Tx* tx) {
  auto src = tx->Handle(kv::tables::kConstitution)
                 ->GetStr(kv::tables::kCurrentKey);
  if (!src.has_value()) {
    return Status::NotFound("no constitution installed");
  }
  return *src;
}

Status ConstitutionEngine::Validate(const std::string& source,
                                    const json::Value& proposal, kv::Tx* tx) {
  ASSIGN_OR_RETURN(auto interp, LoadedEngine(source, tx, /*read_only=*/true));
  if (interp->GetGlobal("validate") == nullptr) return Status::Ok();
  auto r = interp->Call("validate", {Value::FromJson(proposal)});
  RETURN_IF_ERROR(r.status());
  if (r->is_string() && !r->AsString().empty()) {
    return Status::InvalidArgument("proposal invalid: " + r->AsString());
  }
  return Status::Ok();
}

Result<bool> ConstitutionEngine::EvalBallot(const std::string& ballot_source,
                                            const json::Value& proposal,
                                            const std::string& proposer_id,
                                            kv::Tx* tx) {
  ASSIGN_OR_RETURN(auto interp,
                   LoadedEngine(ballot_source, tx, /*read_only=*/true));
  auto r =
      interp->Call("vote", {Value::FromJson(proposal), Value(proposer_id)});
  RETURN_IF_ERROR(r.status());
  return r->Truthy();
}

Result<std::string> ConstitutionEngine::Resolve(
    const std::string& source, const json::Value& proposal,
    const std::string& proposer_id, const std::map<std::string, bool>& votes,
    kv::Tx* tx) {
  ASSIGN_OR_RETURN(auto interp, LoadedEngine(source, tx, /*read_only=*/true));
  script::Object votes_obj;
  for (const auto& [member, vote] : votes) votes_obj[member] = Value(vote);
  auto r = interp->Call("resolve", {Value::FromJson(proposal),
                                    Value(proposer_id),
                                    Value(std::move(votes_obj))});
  RETURN_IF_ERROR(r.status());
  if (!r->is_string()) {
    return Status::Internal("constitution resolve returned non-string");
  }
  std::string state = r->AsString();
  if (state != "Open" && state != "Accepted" && state != "Rejected") {
    return Status::Internal("constitution resolve returned '" + state + "'");
  }
  return state;
}

Status ConstitutionEngine::Apply(const std::string& source,
                                 const json::Value& proposal,
                                 const std::string& proposal_id, kv::Tx* tx) {
  ASSIGN_OR_RETURN(auto interp, LoadedEngine(source, tx, /*read_only=*/false));
  auto r = interp->Call("apply", {Value::FromJson(proposal),
                                  Value(proposal_id)});
  return r.status();
}

const std::string& DefaultConstitution() {
  static const std::string source = R"CCL(
// Default constitution (paper §5.1): a proposal is accepted once a strict
// majority of consortium members vote for it, rejected once a strict
// majority against it is inevitable.

function member_count() {
  return kv_size('public:ccf.gov.members.certs');
}

function resolve(proposal, proposer_id, votes) {
  let total = member_count();
  let votes_for = 0;
  let votes_against = 0;
  for (let m of votes) {
    if (votes[m]) { votes_for += 1; } else { votes_against += 1; }
  }
  if (votes_for * 2 > total) { return 'Accepted'; }
  if (votes_against * 2 >= total) { return 'Rejected'; }
  return 'Open';
}

function validate(proposal) {
  if (typeof(proposal.actions) != 'array') { return 'missing actions'; }
  for (let action of proposal.actions) {
    if (typeof(action.name) != 'string') { return 'action missing name'; }
    if (action.name == 'add_node_code' &&
        typeof(action.args.code_id) != 'string') {
      return 'add_node_code: code_id must be a string';
    }
    if (action.name == 'set_recovery_threshold' &&
        typeof(action.args.threshold) != 'number') {
      return 'set_recovery_threshold: threshold must be a number';
    }
  }
  return '';
}

function set_node_status(node_id, status) {
  let raw = kv_get('public:ccf.gov.nodes.info', node_id);
  if (raw == null) { fail('no such node: ' + node_id); }
  let info = json_parse(raw);
  info.status = status;
  kv_put('public:ccf.gov.nodes.info', node_id, json_stringify(info));
}

function apply(proposal, proposal_id) {
  for (let action of proposal.actions) {
    let args = action.args;
    if (action.name == 'set_user') {
      kv_put('public:ccf.gov.users.certs', args.user_id,
             json_stringify({cert: args.cert}));
    } else if (action.name == 'remove_user') {
      kv_remove('public:ccf.gov.users.certs', args.user_id);
    } else if (action.name == 'set_member') {
      kv_put('public:ccf.gov.members.certs', args.member_id,
             json_stringify({cert: args.cert,
                             encryption_key: args.encryption_key}));
    } else if (action.name == 'add_node_code') {
      kv_put('public:ccf.gov.nodes.code_ids', args.code_id, 'AllowedToJoin');
    } else if (action.name == 'remove_node_code') {
      kv_remove('public:ccf.gov.nodes.code_ids', args.code_id);
    } else if (action.name == 'transition_node_to_trusted') {
      set_node_status(args.node_id, 'Trusted');
    } else if (action.name == 'remove_node') {
      set_node_status(args.node_id, 'Retiring');
    } else if (action.name == 'transition_service_to_open') {
      let raw = kv_get('public:ccf.gov.service.info', 'current');
      if (raw == null) { fail('no service info'); }
      let info = json_parse(raw);
      info.status = 'Open';
      kv_put('public:ccf.gov.service.info', 'current', json_stringify(info));
    } else if (action.name == 'set_constitution') {
      kv_put('public:ccf.gov.constitution', 'current', args.constitution);
    } else if (action.name == 'set_js_app') {
      kv_put('public:ccf.gov.modules', 'app', args.module);
      for (let key of args.endpoints) {
        kv_put('public:ccf.gov.endpoints', key,
               json_stringify(args.endpoints[key]));
      }
    } else if (action.name == 'set_recovery_threshold') {
      kv_put('public:ccf.internal.config', 'recovery_threshold',
             str(args.threshold));
    } else {
      fail('unknown governance action: ' + action.name);
    }
  }
  return true;
}
)CCL";
  return source;
}

}  // namespace ccf::gov
