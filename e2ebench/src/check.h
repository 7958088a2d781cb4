// Answer checks of the benchmark. Every check compares what the program
// returned against an independent reference and reports a mismatch as a
// message; an empty message means the check passed.
#ifndef E2EBENCH_CHECK_H_
#define E2EBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/relation.h"
#include "sgf/sgf.h"

namespace e2ebench {

/// A relation as a set of rows, each row its words followed by its stored
/// fingerprint, sorted and deduplicated, stored flat (arity + 1 words per
/// row). Two relations are equal as sets exactly when their RowSets are
/// equal, fingerprints included.
struct RowSet {
  uint32_t arity = 0;
  std::vector<uint64_t> rows;
  size_t size() const { return rows.size() / (arity + 1); }
};

RowSet Canonical(const gumbo::Relation& rel);

/// Canonical form of every named relation of `db` (a missing one is
/// omitted, which CompareAnswers reports).
using Answer = std::map<std::string, RowSet>;
Answer CanonicalAnswer(const gumbo::Database& db,
                       const std::vector<std::string>& names);

/// The subquery output names of `query`.
std::vector<std::string> OutputNames(const gumbo::sgf::SgfQuery& query);

/// Relation by relation: same names, same arity, same rows (words and
/// fingerprints, as sets).
std::string CompareAnswers(const Answer& got, const Answer& want);

/// Checks every answer to one query against its reference. An answer
/// byte-identical (words and fingerprints, in order) to one this checker
/// already found equal to the reference passes without re-sorting; any
/// other answer is compared as a set.
class AnswerChecker {
 public:
  AnswerChecker(std::vector<std::string> names, Answer reference)
      : names_(std::move(names)), reference_(std::move(reference)) {}
  std::string Check(const gumbo::Database& got);
  const Answer& reference() const { return reference_; }

 private:
  std::vector<std::string> names_;
  Answer reference_;
  std::vector<gumbo::Relation> verified_;  // empty until one answer passed
};

/// Every row of `before` is in `after`, relation by relation.
std::string CheckGrows(const Answer& before, const Answer& after);

/// A job's map-side shuffle bytes equal its reduce-side received bytes
/// (the engine's own reconciliation tolerance: 1e-6 relative).
std::string CheckShuffleBalance(const std::string& job, double sent_mb,
                                double received_mb);

/// Two relations are byte-identical: same arity, words and fingerprints
/// in the same order.
std::string CheckIdentical(const gumbo::Relation& got,
                           const gumbo::Relation& want);

/// Shows that each check above can fail: drops a row from a real answer
/// after an AnswerChecker accepted the original, flips a fingerprint in
/// its canonical form, feeds the shrunk answer to the growth check, and
/// skews a real job's received MB. Returns one message per tampering that
/// was NOT rejected. `answer` must hold at least one non-empty relation.
std::vector<std::string> SelfTest(const gumbo::Database& answer,
                                  const std::vector<std::string>& names,
                                  double sent_mb, double received_mb);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECK_H_
