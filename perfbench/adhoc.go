package main

import (
	"fmt"
	"math/rand"

	"distxq/internal/xmark"
)

// The ad-hoc generator draws query shapes over the logical sharded people
// document. Every shape keeps its record predicates downward-only and
// non-positional and never leaves the record subtree, so the shard-aware
// planner always takes the scatter rewrite and never the materialize
// fallback (which would ship whole documents). Each request's text is made
// unique by a tag predicate that no record satisfies the negation of:
// email addresses are "mailto:p<id>@example.org", never "q<n>".

const logicalRecords = `doc("` + xmark.LogicalPeopleURI + `")/child::site/child::people/child::person`

// cities must match the generator vocabulary of xmark's person records.
var cities = []string{"Amsterdam", "Utrecht", "Delft", "Leiden"}

// adhocGen draws each part of a query from a cycle: a choice among n values
// walks 0..n-1 from a start and with a step that the seed draws, so every
// seed uses each value of each choice equally often. Seeds then differ in
// which parts come together, not in the mix, which keeps the work per
// query, and so every metric, from swinging with the seed.
type adhocGen struct {
	r      *rand.Rand
	cycles map[string]*cycle
}

type cycle struct{ next, step int }

func newAdhocGen(seed uint64) *adhocGen {
	return &adhocGen{r: rand.New(rand.NewSource(int64(seed))), cycles: map[string]*cycle{}}
}

// pick returns the next value in [0, n) of the named choice.
func (g *adhocGen) pick(name string, n int) int {
	c, ok := g.cycles[name]
	if !ok {
		c = &cycle{next: g.r.Intn(n), step: 1 + g.r.Intn(n)}
		for gcd(c.step, n) != 1 {
			c.step = 1 + g.r.Intn(n)
		}
		g.cycles[name] = c
	}
	v := c.next
	c.next = (c.next + c.step) % n
	return v
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// adhocShape is a query with one hole for its per-request tag predicate.
type adhocShape struct{ format string }

// text renders the shape for request n.
func (s adhocShape) text(n int64) string {
	return fmt.Sprintf(s.format, fmt.Sprintf(`[child::emailaddress != "q%d"]`, n))
}

// pred returns a record-level predicate the planner can prove
// non-positional; thresholds are drawn from the lower half of each range so
// most records pass and most lanes return more than one frame.
func (g *adhocGen) pred() string {
	switch g.pick("pred", 5) {
	case 0:
		return fmt.Sprintf(`[child::profile/child::age > %d]`, 18+g.pick("min-age", 12))
	case 1:
		return fmt.Sprintf(`[descendant::age < %d]`, 36+g.pick("max-age", 15))
	case 2:
		return fmt.Sprintf(`[child::address/child::city != %q]`, cities[g.pick("city", len(cities))])
	case 3:
		return fmt.Sprintf(`[child::profile/attribute::income > %d]`, 20000+1000*g.pick("income", 40))
	default:
		return ""
	}
}

// tail returns a downward continuation below the record step.
func (g *adhocGen) tail() string {
	return []string{
		`/child::name`,
		`/child::name/text()`,
		`/descendant::age`,
		`/child::profile/child::age`,
		`/child::emailaddress`,
		`/attribute::id`,
		`/child::address/child::city/text()`,
	}[g.pick("tail", 7)]
}

// shapeKinds is the number of query forms shape cycles through.
const shapeKinds = 6

// shape draws query shape i. Forms cycle with i, so every seed runs the same
// mix of forms and the seed varies only predicates, thresholds and paths.
// "%[1]s" marks where the tag predicate goes; literal percent signs never
// occur in the generated text.
func (g *adhocGen) shape(i int) adhocShape {
	recs := logicalRecords + "%[1]s" + g.pred()
	switch i % shapeKinds {
	case 0: // plain path
		return adhocShape{recs + g.tail()}
	case 1: // FLWOR with filtering body
		return adhocShape{fmt.Sprintf(
			`for $x in %s return if ($x/descendant::age < %d) then $x/child::name else ()`,
			recs, 30+g.pick("filter-age", 21))}
	case 2: // FLWOR with constructor body
		return adhocShape{fmt.Sprintf(
			`for $x in %s return element rec { $x/child::name, $x/descendant::age }`, recs)}
	case 3: // FLWOR with let and sequence body
		return adhocShape{fmt.Sprintf(
			`for $x in %s return let $a := $x/descendant::age return if ($a > %d) then ($x/child::emailaddress, $x/child::address/child::city) else ()`,
			recs, 18+g.pick("let-age", 12))}
	case 4: // let-bound path, loop over the binding
		return adhocShape{fmt.Sprintf(
			`let $s := %s return for $x in $s return $x/child::name`, recs)}
	default: // outer variable shipped as a scatter parameter
		return adhocShape{fmt.Sprintf(
			`let $k := %d return for $x in %s[descendant::age > $k] return if ($x/descendant::age < $k + %d) then $x/child::name else ()`,
			18+g.pick("param-age", 8), recs, 15+g.pick("param-span", 15))}
	}
}
