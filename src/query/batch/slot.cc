#include "query/batch/slot.h"

#include "common/strings.h"
#include "query/ast.h"
#include "storage/analyzer.h"

namespace esdb {
namespace batch {

bool EvalPredSlot(const Predicate& pred, const TypedSlot& slot) {
  switch (pred.op) {
    case PredOp::kEq:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) == 0;
    case PredOp::kNe:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) != 0;
    case PredOp::kLt:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) < 0;
    case PredOp::kLe:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) <= 0;
    case PredOp::kGt:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) > 0;
    case PredOp::kGe:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) >= 0;
    case PredOp::kBetween:
      return !slot.is_nothing() && CompareSlotValue(slot, pred.args[0]) >= 0 &&
             CompareSlotValue(slot, pred.args[1]) <= 0;
    case PredOp::kIn:
      if (slot.is_nothing()) return false;
      for (const Value& a : pred.args) {
        if (CompareSlotValue(slot, a) == 0) return true;
      }
      return false;
    case PredOp::kLike:
      return slot.tag == SlotTag::kString && pred.args[0].is_string() &&
             LikeMatch(slot.as_string(), pred.args[0].as_string());
    case PredOp::kMatch: {
      if (slot.tag != SlotTag::kString || !pred.args[0].is_string()) {
        return false;
      }
      const std::vector<std::string> doc_tokens = Tokenize(slot.as_string());
      for (const std::string& q : Tokenize(pred.args[0].as_string())) {
        bool found = false;
        for (const std::string& t : doc_tokens) {
          if (t == q) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return true;
    }
    case PredOp::kIsNull:
      return slot.is_nothing();
    case PredOp::kIsNotNull:
      return !slot.is_nothing();
  }
  return false;
}

}  // namespace batch
}  // namespace esdb
