// Disjoint-set forest over vertices 0..n-1 with path halving: the
// weakly connected components of a graph, built one edge at a time.

#ifndef IODB_GRAPH_UNION_FIND_H_
#define IODB_GRAPH_UNION_FIND_H_

#include <numeric>
#include <vector>

namespace iodb {

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

}  // namespace iodb

#endif  // IODB_GRAPH_UNION_FIND_H_
