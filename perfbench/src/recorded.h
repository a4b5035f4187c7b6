// Workload sizes and the outputs recorded for them.
//
// The recorded digests are the reference answers of the output checks:
// a replay's schedule digest (replay.h) and the training run's
// final-parameter digest, per workload seed.  `perfbench --record` prints
// the table rows for a seed range.  For a seed outside the table the
// checks fall back to the oracle and to agreement between the run's own
// repetitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

/// Default workload seed (run.py also names the held-out seed, 1001).
inline constexpr std::uint64_t kDefaultSeed = 1;

inline constexpr std::size_t kCoriReplayJobs = 3'000;
inline constexpr std::size_t kCoriBacklogJobs = 2'000;

/// Matches every seed: replay-cori's job stream is fixed (replay.cpp),
/// and FCFS ignores the seeded user mix, so its schedule is seed-free.
inline constexpr std::uint64_t kAnySeed = ~std::uint64_t{0};

struct RecordedDigest {
  std::string_view workload;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Rows printed by `perfbench --record WORKLOAD --seeds 0..63` (and 1001),
// Release build, GCC 12, x86-64.
inline constexpr RecordedDigest kRecordedDigests[] = {
    {"replay-cori", kAnySeed, 11022484426327899237ULL},
    {"train-theta-mini", 0, 14350717514390730718ULL},
    {"train-theta-mini", 1, 4123573679720919596ULL},
    {"train-theta-mini", 2, 14174182761065499766ULL},
    {"train-theta-mini", 3, 6815868299937922265ULL},
    {"train-theta-mini", 4, 13501340717738916799ULL},
    {"train-theta-mini", 5, 6105459623105451732ULL},
    {"train-theta-mini", 6, 3424016954353749858ULL},
    {"train-theta-mini", 7, 11140126202559527233ULL},
    {"train-theta-mini", 8, 11869230123016002613ULL},
    {"train-theta-mini", 9, 4080300107995298881ULL},
    {"train-theta-mini", 10, 16651572852251599064ULL},
    {"train-theta-mini", 11, 15213052377547300476ULL},
    {"train-theta-mini", 12, 5945036492117390113ULL},
    {"train-theta-mini", 13, 18390799191176447353ULL},
    {"train-theta-mini", 14, 18269316054233842939ULL},
    {"train-theta-mini", 15, 15191293251628523300ULL},
    {"train-theta-mini", 16, 15878109260233693817ULL},
    {"train-theta-mini", 17, 5129991792664736421ULL},
    {"train-theta-mini", 18, 18109160723448096526ULL},
    {"train-theta-mini", 19, 16070290887621761394ULL},
    {"train-theta-mini", 20, 10305954398886374112ULL},
    {"train-theta-mini", 21, 11155806492086405742ULL},
    {"train-theta-mini", 22, 12056128188397790926ULL},
    {"train-theta-mini", 23, 1099771898488525825ULL},
    {"train-theta-mini", 24, 13348562759424843290ULL},
    {"train-theta-mini", 25, 12378011600182649071ULL},
    {"train-theta-mini", 26, 5001548673465180944ULL},
    {"train-theta-mini", 27, 7810445850722761969ULL},
    {"train-theta-mini", 28, 13272898643274339869ULL},
    {"train-theta-mini", 29, 5287076135990839890ULL},
    {"train-theta-mini", 30, 283313412694027735ULL},
    {"train-theta-mini", 31, 3009693918103853215ULL},
    {"train-theta-mini", 32, 2986581017281549445ULL},
    {"train-theta-mini", 33, 11649409376209426667ULL},
    {"train-theta-mini", 34, 17576990126417449947ULL},
    {"train-theta-mini", 35, 11648446238773531183ULL},
    {"train-theta-mini", 36, 4636210493946043176ULL},
    {"train-theta-mini", 37, 5776553807155411232ULL},
    {"train-theta-mini", 38, 5900560056681612818ULL},
    {"train-theta-mini", 39, 15470641216700912673ULL},
    {"train-theta-mini", 40, 13046869717505502035ULL},
    {"train-theta-mini", 41, 11839701263710782397ULL},
    {"train-theta-mini", 42, 9102189993522431932ULL},
    {"train-theta-mini", 43, 16948669326415005610ULL},
    {"train-theta-mini", 44, 7963827314007267106ULL},
    {"train-theta-mini", 45, 15110549465294701559ULL},
    {"train-theta-mini", 46, 8876659260609191965ULL},
    {"train-theta-mini", 47, 10275650342294483909ULL},
    {"train-theta-mini", 48, 18035701280095361844ULL},
    {"train-theta-mini", 49, 3872341897441555191ULL},
    {"train-theta-mini", 50, 627553674806362200ULL},
    {"train-theta-mini", 51, 2281601324687789897ULL},
    {"train-theta-mini", 52, 14863592280936782463ULL},
    {"train-theta-mini", 53, 2944773593734622468ULL},
    {"train-theta-mini", 54, 8485786613182831756ULL},
    {"train-theta-mini", 55, 11475306989791028259ULL},
    {"train-theta-mini", 56, 5371659501129580249ULL},
    {"train-theta-mini", 57, 6232989739126632929ULL},
    {"train-theta-mini", 58, 421474873087884577ULL},
    {"train-theta-mini", 59, 10033783688760393615ULL},
    {"train-theta-mini", 60, 16258043391557177721ULL},
    {"train-theta-mini", 61, 11687670339547671538ULL},
    {"train-theta-mini", 62, 13912175957793742987ULL},
    {"train-theta-mini", 63, 6401819065655571479ULL},
    {"train-theta-mini", 1001, 5917968274770795600ULL},
};

[[nodiscard]] inline std::optional<std::uint64_t> recorded_digest(
    std::string_view workload, std::uint64_t seed) {
  for (const auto& row : kRecordedDigests)
    if (row.workload == workload && (row.seed == seed || row.seed == kAnySeed))
      return row.digest;
  return std::nullopt;
}

}  // namespace perfbench
