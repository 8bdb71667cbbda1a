// The three order semantics and their reductions to finite models
// (Section 2).
//
// ModO(D) restricts the linear order of models to a class O: finite
// orders (Fin), orders isomorphic to the integers (Z), or dense orders
// isomorphic to the rationals (Q). The consequence relations nest as
// |=Fin ⊆ |=Z ⊆ |=Q (Proposition 2.1) and coincide on *tight* queries
// (Proposition 2.2). For nontight queries:
//   * Z reduces to Fin by the sentinel construction of Proposition 2.3
//     (2n fresh constants below and above everything, n = the number of
//     query variables);
//   * Q reduces to Fin by Corollary 2.6: take the full closure of each
//     disjunct and delete the variables that occur in no proper atom;
//     the result is tight.

#ifndef IODB_CORE_SEMANTICS_H_
#define IODB_CORE_SEMANTICS_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/database.h"
#include "core/query.h"

namespace iodb {

/// The class of linear orders that models may use.
enum class OrderSemantics {
  kFinite,    // Fin: finite linear orders
  kInteger,   // Z: orders isomorphic to the integers
  kRational,  // Q: dense orders isomorphic to the rationals
};

/// Returns "finite", "integer" or "rational".
const char* OrderSemanticsName(OrderSemantics semantics);

/// Parses a semantics name back into its value: exactly the strings
/// produced by OrderSemanticsName() round-trip (the shared mapping for
/// every CLI flag and trace field). Returns nullopt for anything else.
std::optional<OrderSemantics> ParseOrderSemantics(std::string_view name);

/// The Proposition 2.3 construction: returns D plus fresh sentinel chains
/// @l1 < ... < @ln and @r1 < ... < @rn with @ln < u < @r1 for every order
/// constant u of D. D |=Z Φ iff the result |=Fin Φ, for queries with at
/// most `num_query_order_vars` order variables per disjunct.
Database AddIntegerSentinels(const Database& db, int num_query_order_vars);

/// The Corollary 2.6 transformation: per disjunct, full closure followed
/// by deletion of the order variables occurring in no proper atom. The
/// result is tight and D |=Q Φ iff D |=Fin result. Disjuncts must be
/// inequality-free (rewrite inequalities first).
NormQuery RationalTransform(const NormQuery& query);

}  // namespace iodb

#endif  // IODB_CORE_SEMANTICS_H_
