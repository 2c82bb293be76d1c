#include "apps/smallbank.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "json/schema.h"

namespace ccf::apps {

namespace {

// Balances are stored as decimal strings; absent key == no such account
// (a zero balance is stored explicitly, so "0" is a real account).
std::optional<int64_t> ReadBalance(kv::MapHandle* map,
                                   const std::string& id) {
  auto raw = map->GetStr(id);
  if (!raw.has_value()) return std::nullopt;
  return std::strtoll(raw->c_str(), nullptr, 10);
}

void WriteBalance(kv::MapHandle* map, const std::string& id,
                  int64_t balance) {
  map->PutStr(id, std::to_string(balance));
}

std::string AccountKey(const json::Value& params, const char* field) {
  return std::to_string(params.GetInt(field));
}

json::Value AccountAmountSchema() {
  return json::ObjectSchema(
      {{"account", json::Uint64Schema("account id")},
       {"amount", json::IntegerSchema("amount in minor units")}},
      {"account", "amount"});
}

json::Value BalanceResponseSchema() {
  return json::ObjectSchema(
      {{"account", json::Uint64Schema()},
       {"balance", json::IntegerSchema()}},
      {"account", "balance"});
}

}  // namespace

void SmallBankApp::RegisterEndpoints(rpc::EndpointRegistry* registry,
                                     const node::NodeContext& node) {
  (void)node;
  using rpc::AuthPolicy;
  using rpc::EndpointContext;

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/create_accounts",
      .summary = "Bulk-open accounts [from, to) with starting balances",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = json::ObjectSchema(
          {{"from", json::Uint64Schema("first account id (inclusive)")},
           {"to", json::Uint64Schema("last account id (exclusive)")},
           {"savings", json::Uint64Schema("starting savings balance")},
           {"checking", json::Uint64Schema("starting checking balance")}},
          {"from", "to", "savings", "checking"}),
      .response_schema = json::ObjectSchema(
          {{"created", json::Uint64Schema()}}, {"created"}),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        int64_t from = p->GetInt("from");
        int64_t to = p->GetInt("to");
        if (to < from || to - from > 1000000) {
          ctx->SetError(400, "account range empty or too large");
          return;
        }
        int64_t savings = p->GetInt("savings");
        int64_t checking = p->GetInt("checking");
        kv::MapHandle* sav = ctx->tx().Handle(kSbSavingsMap);
        kv::MapHandle* chk = ctx->tx().Handle(kSbCheckingMap);
        for (int64_t id = from; id < to; ++id) {
          WriteBalance(sav, std::to_string(id), savings);
          WriteBalance(chk, std::to_string(id), checking);
        }
        json::Object out;
        out["created"] = to - from;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/transact_savings",
      .summary = "Add a (possibly negative) amount to savings",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = AccountAmountSchema(),
      .response_schema = BalanceResponseSchema(),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        std::string id = AccountKey(*p, "account");
        kv::MapHandle* sav = ctx->tx().Handle(kSbSavingsMap);
        auto balance = ReadBalance(sav, id);
        if (!balance.has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        int64_t next = *balance + p->GetInt("amount");
        if (next < 0) {
          ctx->SetError(409, "insufficient savings");
          return;
        }
        WriteBalance(sav, id, next);
        json::Object out;
        out["account"] = p->GetInt("account");
        out["balance"] = next;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/deposit_checking",
      .summary = "Add a non-negative amount to checking",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = json::ObjectSchema(
          {{"account", json::Uint64Schema("account id")},
           {"amount", json::Uint64Schema("deposit in minor units")}},
          {"account", "amount"}),
      .response_schema = BalanceResponseSchema(),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        std::string id = AccountKey(*p, "account");
        kv::MapHandle* chk = ctx->tx().Handle(kSbCheckingMap);
        auto balance = ReadBalance(chk, id);
        if (!balance.has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        int64_t next = *balance + p->GetInt("amount");
        WriteBalance(chk, id, next);
        json::Object out;
        out["account"] = p->GetInt("account");
        out["balance"] = next;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/send_payment",
      .summary = "Move funds between two checking accounts",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = json::ObjectSchema(
          {{"from", json::Uint64Schema("payer account id")},
           {"to", json::Uint64Schema("payee account id")},
           {"amount", json::Uint64Schema("payment in minor units")}},
          {"from", "to", "amount"}),
      .response_schema = json::ObjectSchema(
          {{"ok", json::BoolSchema()},
           {"from_balance", json::IntegerSchema()}},
          {"ok", "from_balance"}),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        std::string from = AccountKey(*p, "from");
        std::string to = AccountKey(*p, "to");
        int64_t amount = p->GetInt("amount");
        kv::MapHandle* chk = ctx->tx().Handle(kSbCheckingMap);
        auto from_balance = ReadBalance(chk, from);
        if (!from_balance.has_value() || !ReadBalance(chk, to).has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        if (*from_balance < amount) {
          ctx->SetError(409, "insufficient funds");
          return;
        }
        WriteBalance(chk, from, *from_balance - amount);
        // Read the payee after the payer's write: the tx sees its own
        // writes, so paying oneself is a no-op rather than minting money.
        WriteBalance(chk, to, *ReadBalance(chk, to) + amount);
        json::Object out;
        out["ok"] = true;
        out["from_balance"] = *from_balance - amount;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/write_check",
      .summary = "Deduct a check from checking; overdrafts cost 1 extra",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = json::ObjectSchema(
          {{"account", json::Uint64Schema("account id")},
           {"amount", json::Uint64Schema("check amount in minor units")}},
          {"account", "amount"}),
      .response_schema = BalanceResponseSchema(),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        std::string id = AccountKey(*p, "account");
        int64_t amount = p->GetInt("amount");
        kv::MapHandle* sav = ctx->tx().Handle(kSbSavingsMap);
        kv::MapHandle* chk = ctx->tx().Handle(kSbCheckingMap);
        auto savings = ReadBalance(sav, id);
        auto checking = ReadBalance(chk, id);
        if (!savings.has_value() || !checking.has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        // Classic SmallBank semantics: the check clears even when the
        // combined balance is short, at a 1-unit overdraft penalty.
        int64_t charge = amount;
        if (amount > *savings + *checking) charge = amount + 1;
        int64_t next = *checking - charge;
        WriteBalance(chk, id, next);
        json::Object out;
        out["account"] = p->GetInt("account");
        out["balance"] = next;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "POST",
      .path = "/app/sb/amalgamate",
      .summary = "Move all of one account's funds into another's checking",
      .auth = AuthPolicy::kUserCert,
      .exec_parallel = true,
      .request_schema = json::ObjectSchema(
          {{"from", json::Uint64Schema("source account id")},
           {"to", json::Uint64Schema("destination account id")}},
          {"from", "to"}),
      .response_schema = json::ObjectSchema(
          {{"ok", json::BoolSchema()},
           {"moved", json::IntegerSchema("total amount moved")}},
          {"ok", "moved"}),
      .handler = [](EndpointContext* ctx) {
        auto p = ctx->Params();
        std::string from = AccountKey(*p, "from");
        std::string to = AccountKey(*p, "to");
        kv::MapHandle* sav = ctx->tx().Handle(kSbSavingsMap);
        kv::MapHandle* chk = ctx->tx().Handle(kSbCheckingMap);
        auto from_savings = ReadBalance(sav, from);
        auto from_checking = ReadBalance(chk, from);
        if (!from_savings.has_value() || !from_checking.has_value() ||
            !ReadBalance(chk, to).has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        int64_t moved = *from_savings + *from_checking;
        WriteBalance(sav, from, 0);
        WriteBalance(chk, from, 0);
        // As in send_payment, the destination is read after the source is
        // emptied: amalgamate(a, a) moves a's savings into its checking.
        WriteBalance(chk, to, *ReadBalance(chk, to) + moved);
        json::Object out;
        out["ok"] = true;
        out["moved"] = moved;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });

  InstallEndpoint(registry, {
      .method = "GET",
      .path = "/app/sb/balance",
      .summary = "savings + checking total for ?account=N",
      .auth = AuthPolicy::kUserCert,
      .read_only = true,
      .exec_parallel = true,
      .response_schema = BalanceResponseSchema(),
      .handler = [](EndpointContext* ctx) {
        std::string id = ctx->Param("account");
        if (id.empty()) {
          ctx->SetError(400, "missing account query parameter");
          return;
        }
        auto savings = ReadBalance(ctx->tx().Handle(kSbSavingsMap), id);
        auto checking = ReadBalance(ctx->tx().Handle(kSbCheckingMap), id);
        if (!savings.has_value() || !checking.has_value()) {
          ctx->SetError(404, "no such account");
          return;
        }
        json::Object out;
        out["account"] = static_cast<int64_t>(
            std::strtoll(id.c_str(), nullptr, 10));
        out["balance"] = *savings + *checking;
        ctx->SetJsonResponse(200, json::Value(std::move(out)));
      },
  });
}

}  // namespace ccf::apps
