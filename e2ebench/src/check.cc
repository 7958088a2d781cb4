#include "check.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

using gumbo::Database;
using gumbo::Relation;

RowSet Canonical(const Relation& rel) {
  RowSet s;
  s.arity = rel.arity();
  const size_t k = rel.arity();
  const uint64_t* words = rel.words().data();
  const std::vector<uint64_t>& fps = rel.fingerprints();
  auto less = [&](size_t a, size_t b) {
    const uint64_t* ra = words + a * k;
    const auto [pa, pb] = std::mismatch(ra, ra + k, words + b * k);
    return pa != ra + k ? *pa < *pb : fps[a] < fps[b];
  };
  std::vector<size_t> order(rel.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), less);
  s.rows.reserve(order.size() * (k + 1));
  for (size_t n = 0; n < order.size(); ++n) {
    const size_t i = order[n];
    if (n > 0 && !less(order[n - 1], i)) continue;  // duplicate row
    s.rows.insert(s.rows.end(), words + i * k, words + (i + 1) * k);
    s.rows.push_back(fps[i]);
  }
  return s;
}

Answer CanonicalAnswer(const Database& db,
                       const std::vector<std::string>& names) {
  Answer a;
  for (const std::string& name : names) {
    auto rel = db.Get(name);
    if (rel.ok()) a.emplace(name, Canonical(**rel));
  }
  return a;
}

std::vector<std::string> OutputNames(const gumbo::sgf::SgfQuery& query) {
  std::vector<std::string> names;
  for (const auto& sub : query.subqueries()) names.push_back(sub.output());
  return names;
}

std::string CompareAnswers(const Answer& got, const Answer& want) {
  for (const auto& [name, w] : want) {
    auto it = got.find(name);
    if (it == got.end()) return "output " + name + " missing";
    const RowSet& g = it->second;
    if (g.arity != w.arity) {
      return "output " + name + ": arity " + std::to_string(g.arity) +
             ", reference " + std::to_string(w.arity);
    }
    if (g.rows != w.rows) {
      return "output " + name + ": " + std::to_string(g.size()) +
             " distinct rows differ from the reference's " +
             std::to_string(w.size());
    }
  }
  if (got.size() != want.size()) return "unexpected extra outputs";
  return "";
}

std::string AnswerChecker::Check(const Database& got) {
  if (!verified_.empty()) {
    bool identical = true;
    for (const Relation& v : verified_) {
      auto rel = got.Get(v.name());
      identical = identical && rel.ok() && CheckIdentical(**rel, v).empty();
    }
    if (identical) return "";
  }
  const std::string diff = CompareAnswers(CanonicalAnswer(got, names_), reference_);
  if (diff.empty() && verified_.empty()) {
    for (const std::string& name : names_) verified_.push_back(**got.Get(name));
  }
  return diff;
}

std::string CheckGrows(const Answer& before, const Answer& after) {
  for (const auto& [name, b] : before) {
    auto it = after.find(name);
    if (it == after.end()) return "output " + name + " vanished";
    // Rows are flat runs of arity + 1 words in sorted order; walk both.
    const size_t w = b.arity + 1;
    const std::vector<uint64_t>& a = it->second.rows;
    size_t j = 0;
    for (size_t i = 0; i < b.rows.size(); i += w) {
      while (j < a.size() &&
             std::lexicographical_compare(a.begin() + j, a.begin() + j + w,
                                          b.rows.begin() + i,
                                          b.rows.begin() + i + w)) {
        j += w;
      }
      if (j >= a.size() ||
          !std::equal(b.rows.begin() + i, b.rows.begin() + i + w,
                      a.begin() + j)) {
        return "output " + name + " lost rows after guard-only inserts";
      }
    }
  }
  return "";
}

std::string CheckShuffleBalance(const std::string& job, double sent_mb,
                                double received_mb) {
  if (std::abs(sent_mb - received_mb) > 1e-6 * std::max(1.0, sent_mb)) {
    return "job " + job + ": map side sent " + std::to_string(sent_mb) +
           " MB, reduce side received " + std::to_string(received_mb) +
           " MB";
  }
  return "";
}

std::string CheckIdentical(const Relation& got, const Relation& want) {
  if (got.arity() != want.arity() || got.words() != want.words() ||
      got.fingerprints() != want.fingerprints()) {
    return "relation " + want.name() + " is not byte-identical (" +
           std::to_string(got.size()) + " rows vs " +
           std::to_string(want.size()) + ")";
  }
  return "";
}

namespace {

// `rel` without any copy of its first row.
Relation DropFirstRow(const Relation& rel) {
  const uint32_t k = rel.arity();
  const uint64_t* first = rel.words().data();
  Relation out(rel.name(), k);
  for (size_t i = 0; i < rel.size(); ++i) {
    const uint64_t* row = first + i * k;
    if (!std::equal(row, row + k, first)) {
      out.AppendRaw(row, &rel.fingerprints()[i], 1);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> SelfTest(const Database& answer,
                                  const std::vector<std::string>& names,
                                  double sent_mb, double received_mb) {
  std::vector<std::string> missed;
  const Relation* victim = nullptr;
  for (const std::string& name : names) {
    auto rel = answer.Get(name);
    if (rel.ok() && !(*rel)->empty()) {
      victim = *rel;
      break;
    }
  }
  if (victim == nullptr) return {"self-test: no non-empty answer to tamper"};
  AnswerChecker checker(names, CanonicalAnswer(answer, names));
  if (!checker.Check(answer).empty()) {
    missed.push_back("self-test: an untouched answer was rejected");
  }
  Database dropped = answer;
  dropped.Put(DropFirstRow(*victim));
  if (checker.Check(dropped).empty()) {
    missed.push_back("self-test: a dropped row was not rejected");
  }
  // A relation cannot hold a row whose fingerprint does not match its
  // words (debug builds assert it), so the flip is made in the canonical
  // form: the first row's fingerprint word.
  Answer flipped = checker.reference();
  flipped[victim->name()].rows[victim->arity()] ^= 1;
  if (CompareAnswers(flipped, checker.reference()).empty()) {
    missed.push_back("self-test: a flipped fingerprint was not rejected");
  }
  if (CheckGrows(checker.reference(), CanonicalAnswer(dropped, names))
          .empty()) {
    missed.push_back("self-test: a shrinking output passed the growth check");
  }
  if (!CheckShuffleBalance("self-test", sent_mb, received_mb).empty()) {
    missed.push_back("self-test: a balanced shuffle was rejected");
  }
  if (CheckShuffleBalance("self-test", sent_mb,
                          received_mb * 1.01 + 1e-3)
          .empty()) {
    missed.push_back("self-test: a skewed received MB was not rejected");
  }
  return missed;
}

}  // namespace e2ebench
