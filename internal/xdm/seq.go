package xdm

// Seq is a pull-based lazy sequence of items. A Seq is a function that
// produces its items by calling yield for each one in order; it stops early
// when yield returns false. The returned error is the production error, if
// any: a Seq that was cut short by its consumer returns nil.
//
// This is the `iter.Seq[Item]` shape written as a plain func type (the module
// targets go 1.22, which predates the iter package), extended with an error
// return so evaluation failures — type errors, deadline aborts — surface at
// the pull site rather than panicking through the consumer.
//
// Contract for producers:
//   - items are yielded in sequence order, exactly once each;
//   - after yield returns false, no further yields; return nil;
//   - an evaluation error ends the sequence: the items yielded before it are
//     a valid prefix of the result, matching the streamed-protocol rule that
//     frames delivered before a fault are kept.
type Seq func(yield func(Item) bool) error

// EmptySeq is the lazy empty sequence.
func EmptySeq() Seq {
	return func(func(Item) bool) error { return nil }
}

// Materialize drains the sequence into a slice. On error the items produced
// before the failure are discarded and only the error is returned, matching
// the eager evaluator's all-or-nothing result contract.
func (q Seq) Materialize() (Sequence, error) {
	var out Sequence
	err := q(func(it Item) bool {
		out = append(out, it)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// OrderedDisjointNodes reports whether nodes are in strictly increasing
// global document order with non-overlapping subtrees, all from frozen
// documents. This is the precondition under which a forward downward axis
// step (child, attribute, self, descendant, descendant-or-self) over the
// nodes emits its result already in distinct document order, so the step can
// stream without a SortDocOrder barrier: disjoint subtrees cannot produce
// the same node twice, and ordered disjoint subtrees enumerate their
// descendants in global order when visited left to right.
//
// It returns false for unfrozen or detached nodes (SubtreeSize 0, or nodes
// that Compare cannot order), which callers treat as "materialize instead".
func OrderedDisjointNodes(nodes []*Node) bool {
	for i, n := range nodes {
		if n.size <= 0 || n.Doc == nil {
			return false
		}
		if i == 0 {
			continue
		}
		prev := nodes[i-1]
		if prev.Doc == n.Doc {
			if n.pre < prev.pre+prev.size {
				return false
			}
		} else if Compare(prev, n) >= 0 {
			return false
		}
	}
	return true
}
