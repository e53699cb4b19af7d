#include <gtest/gtest.h>

#include "stream/element.h"
#include "tuple/tuple.h"

namespace pjoin {
namespace {

SchemaPtr OneFieldSchema() {
  return Schema::Make({{"x", ValueType::kInt64}});
}

TEST(StreamElementTest, TupleElement) {
  SchemaPtr s = OneFieldSchema();
  StreamElement e = StreamElement::MakeTuple(
      Tuple(s, {Value(int64_t{1})}), 500, 3);
  EXPECT_TRUE(e.is_tuple());
  EXPECT_FALSE(e.is_punctuation());
  EXPECT_EQ(e.arrival(), 500);
  EXPECT_EQ(e.seq(), 3);
  EXPECT_EQ(e.tuple().field(0).AsInt64(), 1);
}

TEST(StreamElementTest, PunctuationElement) {
  StreamElement e = StreamElement::MakePunctuation(
      Punctuation::ForAttribute(1, 0, Pattern::Constant(Value(int64_t{5}))),
      700);
  EXPECT_TRUE(e.is_punctuation());
  EXPECT_EQ(e.punctuation().pattern(0).constant().AsInt64(), 5);
}

TEST(StreamElementTest, EndOfStreamElement) {
  StreamElement e = StreamElement::MakeEndOfStream(900);
  EXPECT_TRUE(e.is_end_of_stream());
  EXPECT_EQ(e.arrival(), 900);
  // Default-constructed element is EOS too.
  EXPECT_TRUE(StreamElement().is_end_of_stream());
}

TEST(StreamElementTest, ToStringDistinguishesKinds) {
  SchemaPtr s = OneFieldSchema();
  EXPECT_NE(StreamElement::MakeTuple(Tuple(s, {Value(int64_t{1})}), 1)
                .ToString()
                .find("t@"),
            std::string::npos);
  EXPECT_NE(StreamElement::MakeEndOfStream(1).ToString().find("eos@"),
            std::string::npos);
}

}  // namespace
}  // namespace pjoin
