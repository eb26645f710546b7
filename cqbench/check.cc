// Comparison of library answers with the oracle's expectations.

#include <sstream>

#include "workload.h"

namespace cqbench {

using cqcs::EngineResult;
using cqcs::HomTask;

namespace {

bool Unknown(const EngineResult& r) {
  return r.stats.governor.tripped || r.stats.search.limit_hit;
}

std::vector<std::vector<uint32_t>> Rows(const EngineResult& r) {
  return {r.rows.begin(), r.rows.end()};
}

}  // namespace

void CheckAnswer(const EngineResult& r, const Expected& want,
                 OpRecord* record) {
  auto fail = [record](std::string why) {
    record->failed = true;
    record->why = std::move(why);
  };
  switch (want.task) {
    case HomTask::kDecide:
    case HomTask::kWitness: {
      record->fingerprint = r.decided ? 1 : 2;
      if (!r.decided && Unknown(r)) return fail("answered unknown");
      if (r.decided != want.yes) {
        return fail(std::string("answered ") + (r.decided ? "yes" : "no") +
                    ", oracle says " + (want.yes ? "yes" : "no"));
      }
      if (want.task == HomTask::kWitness && r.decided) {
        if (!r.witness.has_value()) return fail("yes without a witness");
        std::string why;
        if (!VerifyWitness(*want.source, *want.target, *r.witness, &why)) {
          return fail("witness rejected: " + why);
        }
        std::vector<std::vector<uint32_t>> w{
            {r.witness->begin(), r.witness->end()}};
        record->fingerprint = RowsDigest(std::move(w));
      }
      return;
    }
    case HomTask::kCount:
      record->fingerprint = r.count;
      if (Unknown(r)) return fail("count cut short (unknown)");
      if (r.count != want.count) {
        return fail("count " + std::to_string(r.count) + ", oracle says " +
                    std::to_string(want.count));
      }
      return;
    case HomTask::kEnumerate:
    case HomTask::kProject: {
      const uint64_t digest = RowsDigest(Rows(r));
      record->fingerprint = digest;
      if (Unknown(r)) return fail("projection cut short (unknown)");
      if (r.rows.size() != want.rows || digest != want.rows_digest) {
        return fail("rows=" + std::to_string(r.rows.size()) +
                    " differ from the oracle's " + std::to_string(want.rows));
      }
      return;
    }
  }
}

std::string ProtocolAnswer(const EngineResult& r) {
  switch (r.task) {
    case HomTask::kDecide:
    case HomTask::kWitness:
      if (r.decided) return "yes";
      return Unknown(r) ? "unknown" : "no";
    case HomTask::kCount:
      return "count=" + std::to_string(r.count);
    case HomTask::kEnumerate:
    case HomTask::kProject:
      return "rows=" + std::to_string(r.rows.size());
  }
  return "?";
}

std::string ProtocolLine(const OpRecord& record) {
  return "ok " + record.answer + " backend=* plan_hit=" +
         (record.plan_hit ? "1" : "0") +
         " result_hit=" + (record.result_hit ? "1" : "0");
}

bool ProtocolLineMatches(const std::string& line, const std::string& want) {
  std::istringstream got_in(line), want_in(want);
  std::string g, w;
  while (true) {
    const bool more_got = static_cast<bool>(got_in >> g);
    const bool more_want = static_cast<bool>(want_in >> w);
    if (more_got != more_want) return false;
    if (!more_got) return true;
    const size_t star = w.find('*');
    if (star == std::string::npos) {
      if (g != w) return false;
    } else if (g.compare(0, star, w, 0, star) != 0) {
      return false;
    }
  }
}

}  // namespace cqbench
