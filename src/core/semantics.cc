#include "core/semantics.h"

namespace iodb {

const char* OrderSemanticsName(OrderSemantics semantics) {
  switch (semantics) {
    case OrderSemantics::kFinite:
      return "finite";
    case OrderSemantics::kInteger:
      return "integer";
    case OrderSemantics::kRational:
      return "rational";
  }
  return "unknown";
}

std::optional<OrderSemantics> ParseOrderSemantics(std::string_view name) {
  if (name == "finite") return OrderSemantics::kFinite;
  if (name == "integer") return OrderSemantics::kInteger;
  if (name == "rational") return OrderSemantics::kRational;
  return std::nullopt;
}

Database AddIntegerSentinels(const Database& db, int num_query_order_vars) {
  Database out = db;
  const int n = num_query_order_vars;
  if (n == 0) return out;

  // Names are prefixed with '@', which the parser reserves, so they cannot
  // collide with user constants.
  std::vector<int> left(n), right(n);
  for (int i = 0; i < n; ++i) {
    left[i] = out.GetOrAddConstant("@l" + std::to_string(i + 1), Sort::kOrder);
    right[i] =
        out.GetOrAddConstant("@r" + std::to_string(i + 1), Sort::kOrder);
  }
  for (int i = 0; i + 1 < n; ++i) {
    out.AddOrderAtom(left[i], left[i + 1], OrderRel::kLt);
    out.AddOrderAtom(right[i], right[i + 1], OrderRel::kLt);
  }
  // @ln < u < @r1 for every order constant u of the original database.
  for (int u = 0; u < db.num_order_constants(); ++u) {
    out.AddOrderAtom(left[n - 1], u, OrderRel::kLt);
    out.AddOrderAtom(u, right[0], OrderRel::kLt);
  }
  return out;
}

NormQuery RationalTransform(const NormQuery& query) {
  NormQuery out;
  out.vocab = query.vocab;
  out.trivially_true = query.trivially_true;
  for (const NormConjunct& conjunct : query.disjuncts) {
    NormConjunct transformed = DropNonProperVars(FullClosure(conjunct));
    if (transformed.IsEmpty()) out.trivially_true = true;
    out.disjuncts.push_back(std::move(transformed));
  }
  return out;
}

}  // namespace iodb
