// ArrivalMerge: two punctuated streams read as one sequence in global
// arrival order, the order in which a binary join consumes its inputs
// (paper §3). Ties go to the left stream. Every loop that feeds a join
// from two element vectors walks them through this cursor.

#ifndef PJOIN_STREAM_ARRIVAL_MERGE_H_
#define PJOIN_STREAM_ARRIVAL_MERGE_H_

#include <cstddef>
#include <vector>

#include "stream/element.h"

namespace pjoin {

/// One element of the merged sequence and the input it came from.
struct SidedElement {
  int side;  // 0 = left, 1 = right
  const StreamElement* element;
};

/// Cursor over two element vectors in global arrival order, ties to the
/// left. Borrows both vectors; they must outlive the cursor.
///
///   for (ArrivalMerge merge(left, right); !merge.done();) {
///     const auto [side, e] = merge.Next();
///     ...
///   }
class ArrivalMerge {
 public:
  ArrivalMerge(const std::vector<StreamElement>& left,
               const std::vector<StreamElement>& right)
      : inputs_{&left, &right} {}

  bool done() const {
    return pos_[0] >= inputs_[0]->size() && pos_[1] >= inputs_[1]->size();
  }

  /// Takes the next element. Requires !done().
  SidedElement Next() {
    const std::vector<StreamElement>& left = *inputs_[0];
    const std::vector<StreamElement>& right = *inputs_[1];
    const int side = pos_[1] >= right.size() ||
                             (pos_[0] < left.size() &&
                              left[pos_[0]].arrival() <=
                                  right[pos_[1]].arrival())
                         ? 0
                         : 1;
    return SidedElement{side, &(*inputs_[side])[pos_[side]++]};
  }

 private:
  const std::vector<StreamElement>* inputs_[2];
  size_t pos_[2] = {0, 0};
};

}  // namespace pjoin

#endif  // PJOIN_STREAM_ARRIVAL_MERGE_H_
