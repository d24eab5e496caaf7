#ifndef PROVLIN_VALUES_VALUE_H_
#define PROVLIN_VALUES_VALUE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "values/atom.h"
#include "values/index.h"

namespace provlin {

/// A workflow value: an atom, or an arbitrarily nested list of values
/// (paper §2.1). Values are immutable once constructed; workflow ports,
/// provenance bindings and trace records all refer to Values.
class Value {
 public:
  /// Null atom.
  Value() : kind_(Kind::kAtom) {}
  explicit Value(Atom atom) : kind_(Kind::kAtom), atom_(std::move(atom)) {}

  /// Convenience atom constructors.
  static Value Str(std::string s) { return Value(std::in_place, std::move(s)); }
  static Value Int(int64_t v) { return Value(std::in_place, v); }
  static Value Dbl(double v) { return Value(std::in_place, v); }
  static Value Boolean(bool v) { return Value(std::in_place, v); }
  static Value Null() { return Value(); }
  /// An error token (possibly wrapped later to match a declared depth).
  static Value Error(std::string message) {
    return Value(Atom::Error(std::move(message)));
  }

  /// List constructor.
  static Value List(std::vector<Value> elems);

  /// A list of string atoms — frequent in the testbed workflows.
  static Value StringList(const std::vector<std::string>& items);

  bool is_atom() const { return kind_ == Kind::kAtom; }
  bool is_list() const { return kind_ == Kind::kList; }

  const Atom& atom() const;
  const std::vector<Value>& elements() const;
  size_t list_size() const { return elements().size(); }

  /// Nesting depth: 0 for atoms; for lists, 1 + depth of the first
  /// element (1 for an empty list). The model assumes uniform depth;
  /// InferType() validates it.
  int depth() const;

  /// Element at index path `idx` (paper: v[p1...pk]); the empty index
  /// returns the whole value. Errors if any component is out of range or
  /// descends into an atom.
  Result<Value> At(const Index& idx) const;

  /// Number of atoms in the (possibly nested) value; atoms count as 1.
  size_t TotalAtoms() const;

  /// True when the value is, or contains (at any depth), an error token.
  bool ContainsError() const;

  /// The first error message found (document order), or "" when none.
  std::string FirstError() const;

  /// All index paths to leaf atoms, in document order. For an atom this
  /// is { [] }.
  std::vector<Index> LeafIndices() const;

  /// All index paths of exactly `len` components (i.e. the elements at
  /// nesting level `len`). len = 0 yields { [] }. Paths that would
  /// descend into atoms are skipped.
  std::vector<Index> IndicesAtLevel(size_t len) const;

  /// Literal rendering, e.g. [["foo","bar"],["red","fox"]].
  std::string ToString() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  enum class Kind { kAtom, kList };

  /// Builds the atom in place from its payload. Moving a temporary Atom
  /// in instead visits its variant, which GCC 12 reports as a
  /// -Wmaybe-uninitialized false positive in sanitizer builds.
  template <typename T>
  Value(std::in_place_t, T&& payload)
      : kind_(Kind::kAtom), atom_(std::forward<T>(payload)) {}

  Kind kind_;
  Atom atom_;
  std::vector<Value> elems_;
};

}  // namespace provlin

#endif  // PROVLIN_VALUES_VALUE_H_
