#include "fault/faulty_stream_source.h"

#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"

namespace pjoin {

namespace {

/// True when `punct` constrains only the join attribute (the kind whose
/// coverage the join's purge and late-tuple checks key on).
bool IsKeyOnly(const Punctuation& punct, size_t key_index) {
  if (key_index >= punct.num_patterns()) return false;
  for (size_t i = 0; i < punct.num_patterns(); ++i) {
    if (i == key_index) continue;
    if (!punct.pattern(i).IsWildcard()) return false;
  }
  return !punct.pattern(key_index).IsWildcard();
}

/// Tracks which join-key values this stream has promised never to send
/// again, mirroring PunctuationSet::SetMatchKey.
class Coverage {
 public:
  explicit Coverage(size_t key_index) : key_index_(key_index) {}

  void Observe(const Punctuation& punct) {
    if (!IsKeyOnly(punct, key_index_)) return;
    const Pattern& p = punct.pattern(key_index_);
    if (p.IsConstant()) {
      constants_.insert(p.constant());
    } else {
      patterns_.push_back(p);
    }
  }

  bool Covers(const Value& key) const {
    if (constants_.count(key) > 0) return true;
    for (const Pattern& p : patterns_) {
      if (p.Matches(key)) return true;
    }
    return false;
  }

 private:
  size_t key_index_;
  std::unordered_set<Value, ValueHash> constants_;
  std::vector<Pattern> patterns_;
};

}  // namespace

PerturbedStream PerturbStream(const std::vector<StreamElement>& clean,
                              size_t key_index, const StreamFaultSpec& spec,
                              FaultInjector* injector) {
  PJOIN_DCHECK(injector != nullptr);
  PerturbedStream out;

  // Pass 1 — benign reordering: swap adjacent tuple-tuple pairs, keeping
  // the original arrival/seq stamps in place so the stream stays
  // time-ordered. A tuple never crosses a punctuation, so the §2.2
  // contract (and the result multiset) is untouched.
  std::vector<StreamElement> elems = clean;
  for (size_t i = 0; i + 1 < elems.size(); ++i) {
    if (!elems[i].is_tuple() || !elems[i + 1].is_tuple()) continue;
    if (!injector->Roll(spec.reorder_rate)) continue;
    Tuple a = elems[i].tuple();
    Tuple b = elems[i + 1].tuple();
    StreamElement swapped_first = StreamElement::MakeTuple(
        std::move(b), elems[i].arrival(), elems[i].seq());
    StreamElement swapped_second = StreamElement::MakeTuple(
        std::move(a), elems[i + 1].arrival(), elems[i + 1].seq());
    elems[i] = std::move(swapped_first);
    elems[i + 1] = std::move(swapped_second);
    ++out.reorders;
    injector->Count("stream_reorder");
    ++i;  // never re-swap the same pair
  }

  // Pass 2 — injections relative to the (possibly reordered) stream.
  Coverage coverage(key_index);
  // Tuples whose key this stream has since punctuated: the raw material for
  // late-tuple injection.
  std::vector<Tuple> covered_exemplars;
  std::unordered_map<Value, Tuple, ValueHash> last_by_key;
  TimeMicros time_shift = 0;
  size_t tuple_width = 0;

  auto push_both = [&out](StreamElement e) {
    out.sanitized.push_back(e);
    out.faulty.push_back(std::move(e));
  };

  for (const StreamElement& orig : elems) {
    StreamElement e = orig;
    const TimeMicros now = orig.arrival() + time_shift;
    switch (orig.kind()) {
      case ElementKind::kTuple:
        e = StreamElement::MakeTuple(orig.tuple(), now, orig.seq());
        break;
      case ElementKind::kPunctuation:
        e = StreamElement::MakePunctuation(orig.punctuation(), now,
                                           orig.seq());
        break;
      case ElementKind::kEndOfStream:
        e = StreamElement::MakeEndOfStream(now, orig.seq());
        break;
    }

    if (e.is_tuple()) {
      tuple_width = e.tuple().num_fields();
      const Value& key = e.tuple().field(key_index);
      if (!coverage.Covers(key)) {
        last_by_key.insert_or_assign(key, e.tuple());
      }
    } else if (e.is_punctuation()) {
      coverage.Observe(e.punctuation());
      if (IsKeyOnly(e.punctuation(), key_index)) {
        // Keys that just became covered graduate to exemplars.
        for (auto it = last_by_key.begin(); it != last_by_key.end();) {
          if (coverage.Covers(it->first)) {
            covered_exemplars.push_back(std::move(it->second));
            it = last_by_key.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    const bool is_tuple = e.is_tuple();
    push_both(std::move(e));
    const Tuple* current = is_tuple ? &out.faulty.back().tuple() : nullptr;

    if (orig.is_end_of_stream()) break;

    // Producer stall: every later arrival shifts by stall_micros.
    if (injector->Roll(spec.stall_rate)) {
      time_shift += spec.stall_micros;
      ++out.stalls;
      injector->Count("stream_stall");
    }

    // Duplicate the current tuple. Covered key -> detectable violation.
    if (is_tuple && injector->Roll(spec.duplicate_rate)) {
      StreamElement dup = StreamElement::MakeTuple(*current, now, 0);
      if (coverage.Covers(current->field(key_index))) {
        out.faulty.push_back(std::move(dup));
        ++out.duplicates;
        ++out.violations;
        injector->Count("stream_duplicate_violation");
      } else {
        out.sanitized.push_back(dup);
        out.faulty.push_back(std::move(dup));
        ++out.benign_duplicates;
        injector->Count("stream_duplicate_benign");
      }
    }

    // Late tuple: re-emit a tuple whose key was already punctuated.
    if (!covered_exemplars.empty() && injector->Roll(spec.late_tuple_rate)) {
      const size_t pick = static_cast<size_t>(injector->UniformInt(
          0, static_cast<int64_t>(covered_exemplars.size()) - 1));
      out.faulty.push_back(
          StreamElement::MakeTuple(covered_exemplars[pick], now, 0));
      ++out.late_tuples;
      ++out.violations;
      injector->Count("stream_late_tuple");
    }

    // Malformed punctuation: wrong arity or an empty pattern.
    if (tuple_width > 0 && injector->Roll(spec.malformed_punct_rate)) {
      Punctuation bad;
      if (injector->Roll(0.5)) {
        bad = Punctuation(
            std::vector<Pattern>(tuple_width + 1, Pattern::Wildcard()));
      } else {
        bad = Punctuation::ForAttribute(tuple_width, key_index,
                                        Pattern::Empty());
      }
      out.faulty.push_back(
          StreamElement::MakePunctuation(std::move(bad), now, 0));
      ++out.malformed_puncts;
      ++out.violations;
      injector->Count("stream_malformed_punct");
    }
  }

  // Resequence both views so seq stays a consistent per-stream counter.
  auto resequence = [](std::vector<StreamElement>* elements) {
    int64_t seq = 0;
    for (StreamElement& e : *elements) {
      switch (e.kind()) {
        case ElementKind::kTuple:
          e = StreamElement::MakeTuple(e.tuple(), e.arrival(), seq++);
          break;
        case ElementKind::kPunctuation:
          e = StreamElement::MakePunctuation(e.punctuation(), e.arrival(),
                                             seq++);
          break;
        case ElementKind::kEndOfStream:
          e = StreamElement::MakeEndOfStream(e.arrival(), seq++);
          break;
      }
    }
  };
  resequence(&out.faulty);
  resequence(&out.sanitized);
  return out;
}

}  // namespace pjoin
