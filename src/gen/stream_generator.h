// Synthetic punctuated-stream generation (paper §4: "We have created a
// benchmark system to generate synthetic data streams by controlling the
// arrival patterns and rates of the data and punctuations.")
//
// Two streams are generated against one SharedDomain in a merged virtual-time
// simulation, so the interleaving of tuples, punctuations and key closures is
// globally consistent and fully deterministic for a given seed.

#ifndef PJOIN_GEN_STREAM_GENERATOR_H_
#define PJOIN_GEN_STREAM_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/domain.h"
#include "gen/punct_scheme.h"
#include "stream/element.h"
#include "tuple/schema.h"

namespace pjoin {

/// Domain shared by the two streams of an experiment.
struct DomainSpec {
  /// Number of keys open (sampleable) at any moment.
  int64_t window_size = 20;
};

/// Per-stream generation parameters.
struct StreamSpec {
  /// Number of data tuples to generate.
  int64_t num_tuples = 10000;
  /// Mean tuple inter-arrival time (Poisson); the paper uses 2 ms.
  double tuple_mean_interarrival_micros = 2000.0;
  /// Mean number of tuples between two punctuations (Poisson). <= 0 disables
  /// punctuations on this stream.
  double punct_mean_interarrival_tuples = 40.0;
  /// Pattern style of this stream's punctuations.
  PunctStyle punct_style = PunctStyle::kConstant;
  /// Keys per punctuation for range / enum styles.
  int64_t punct_batch = 1;
  /// Payload values are uniform in [0, payload_domain).
  int64_t payload_domain = 1000;
  /// Clustered arrival (the k-constraint pattern of paper §5, representable
  /// by punctuations): instead of sampling uniformly from the open window,
  /// the stream always emits the *oldest* open key, so all tuples of a key
  /// arrive contiguously and the key's punctuation follows its cluster.
  bool clustered = false;
  /// Key skew: > 0 draws the offset within the open window from a Zipf-like
  /// distribution with this exponent (0 = uniform). Newer keys are hotter,
  /// so partition loads are imbalanced — a stress for relocation policies.
  double zipf_s = 0.0;
  /// Emit one final range punctuation covering all still-unpunctuated keys
  /// before end-of-stream (useful for drain/propagation experiments).
  bool flush_punctuations_at_end = false;
  /// Field name of the non-key payload attribute.
  std::string payload_name = "payload";
};

/// The result of one generation run.
struct GeneratedStreams {
  SchemaPtr schema_a;
  SchemaPtr schema_b;
  std::vector<StreamElement> a;
  std::vector<StreamElement> b;

  int64_t NumTuples(const std::vector<StreamElement>& s) const;
  int64_t NumPunctuations(const std::vector<StreamElement>& s) const;
};

/// Generates both streams. Schemas are (key:int64, <payload_name>:int64) and
/// the join attribute is field 0. Each returned vector ends with an
/// end-of-stream element.
GeneratedStreams GenerateStreams(const DomainSpec& domain_spec,
                                 const StreamSpec& spec_a,
                                 const StreamSpec& spec_b, uint64_t seed);

}  // namespace pjoin

#endif  // PJOIN_GEN_STREAM_GENERATOR_H_
