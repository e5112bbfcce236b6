package xdm

import (
	"math/rand"
	"testing"
)

// buildOrderTestDoc constructs a moderately nested frozen document with
// attributes, text and comments, exercising every structural shape the
// pre/size numbering has to cover.
func buildOrderTestDoc(t *testing.T) *Document {
	t.Helper()
	d, err := ParseString(`<site id="s">
	  <people>
	    <person id="p1"><name>Ann</name><age>47</age><!--note--></person>
	    <person id="p2"><name>Bob</name><profile><age>31</age><edu e="x">BSc</edu></profile></person>
	    <person id="p3"/>
	  </people>
	  <regions r="2"><eu><item i="1"><desc>long<em>bold</em>tail</desc></item></eu><na/></regions>
	</site>`, "order-test.xml")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// allNodes collects every node of the document including attributes.
func allNodes(d *Document) []*Node {
	var out []*Node
	d.Root.WalkDescendants(func(n *Node) bool {
		out = append(out, n)
		out = append(out, n.Attrs...)
		return true
	})
	return out
}

// referenceSortDocOrder is the seed's allocating merge sort + dedup, kept as
// the semantic oracle for the in-place SortDocOrder.
func referenceSortDocOrder(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	var mergeSort func(nodes []*Node) []*Node
	mergeSort = func(nodes []*Node) []*Node {
		if len(nodes) < 2 {
			return nodes
		}
		mid := len(nodes) / 2
		left := mergeSort(append([]*Node(nil), nodes[:mid]...))
		right := mergeSort(append([]*Node(nil), nodes[mid:]...))
		out := make([]*Node, 0, len(nodes))
		i, j := 0, 0
		for i < len(left) && j < len(right) {
			if Compare(left[i], right[j]) <= 0 {
				out = append(out, left[i])
				i++
			} else {
				out = append(out, right[j])
				j++
			}
		}
		out = append(out, left[i:]...)
		out = append(out, right[j:]...)
		return out
	}
	sorted := mergeSort(nodes)
	out := sorted[:1]
	for _, n := range sorted[1:] {
		if n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

func TestSortDocOrderMatchesReference(t *testing.T) {
	d1 := buildOrderTestDoc(t)
	d2, err := ParseString(`<other><a x="1"/><b>t</b></other>`, "other.xml")
	if err != nil {
		t.Fatal(err)
	}
	pool := append(allNodes(d1), allNodes(d2)...)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2 * len(pool))
		in := make([]*Node, n)
		for i := range in {
			in[i] = pool[rng.Intn(len(pool))] // duplicates on purpose
		}
		want := referenceSortDocOrder(append([]*Node(nil), in...))
		got := SortDocOrder(append([]*Node(nil), in...))
		if len(got) != len(want) {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: node %d differs: pre %d vs %d",
					trial, i, got[i].Pre(), want[i].Pre())
			}
		}
	}
}

func TestSortDocOrderFastPathLeavesSortedInputAlone(t *testing.T) {
	d := buildOrderTestDoc(t)
	var sorted []*Node
	d.Root.WalkDescendants(func(n *Node) bool {
		sorted = append(sorted, n)
		return true
	})
	got := SortDocOrder(sorted)
	if len(got) != len(sorted) || &got[0] != &sorted[0] {
		t.Fatal("sorted input must be returned as-is")
	}
	allocs := testing.AllocsPerRun(20, func() { SortDocOrder(sorted) })
	if allocs != 0 {
		t.Errorf("SortDocOrder on sorted input allocates %.0f times, want 0", allocs)
	}
}

func TestFreezeAssignsSiblingIndexAndSubtreeSize(t *testing.T) {
	d := buildOrderTestDoc(t)
	count := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		count++
		count += len(n.Attrs)
		for i, a := range n.Attrs {
			if int(a.SiblingIndex()) != i {
				t.Errorf("attr %s: sibIdx = %d, want %d", a.Name, a.SiblingIndex(), i)
			}
			if a.SubtreeSize() != 1 {
				t.Errorf("attr %s: size = %d, want 1", a.Name, a.SubtreeSize())
			}
		}
		ranks := int32(1) + int32(len(n.Attrs))
		for i, c := range n.Children {
			if int(c.SiblingIndex()) != i {
				t.Errorf("node %s/%s: sibIdx = %d, want %d", n.Name, c.Name, c.SiblingIndex(), i)
			}
			walk(c)
			ranks += c.SubtreeSize()
		}
		if n.SubtreeSize() != ranks {
			t.Errorf("node %s: size = %d, want %d (sum of self+attrs+children)",
				n.Name, n.SubtreeSize(), ranks)
		}
	}
	walk(d.Root)
	if count != d.nnodes {
		t.Errorf("NodeCount = %d, counted %d", d.nnodes, count)
	}
	if d.Root.SubtreeSize() != int32(d.nnodes) {
		t.Errorf("root size = %d, want NodeCount %d", d.Root.SubtreeSize(), d.nnodes)
	}
}

func TestIsAncestorOfMatchesParentWalk(t *testing.T) {
	d := buildOrderTestDoc(t)
	nodes := allNodes(d)
	walkAncestor := func(n, m *Node) bool {
		for p := m.Parent; p != nil; p = p.Parent {
			if p == n {
				return true
			}
		}
		return false
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if got, want := n.IsAncestorOf(m), walkAncestor(n, m); got != want {
				t.Fatalf("IsAncestorOf(%s pre=%d, %s pre=%d) = %v, want %v",
					n.Name, n.Pre(), m.Name, m.Pre(), got, want)
			}
		}
	}
	// Detached (unfrozen) trees must still answer via the parent walk.
	det := NewElement("a")
	ch := NewElement("b")
	det.AppendChild(ch)
	if !det.IsAncestorOf(ch) || ch.IsAncestorOf(det) {
		t.Error("detached-tree ancestor test broken")
	}
}

func TestFollowingMatchesNaiveScan(t *testing.T) {
	d := buildOrderTestDoc(t)
	naiveFollowing := func(n *Node) *Node {
		cur := n
		if cur.Kind == AttributeNode {
			cur = cur.Parent
			if len(cur.Children) > 0 {
				return cur.Children[0]
			}
		}
		for cur != nil {
			p := cur.Parent
			if p == nil {
				return nil
			}
			idx := -1
			for i, c := range p.Children {
				if c == cur {
					idx = i
					break
				}
			}
			if idx >= 0 && idx+1 < len(p.Children) {
				return p.Children[idx+1]
			}
			cur = p
		}
		return nil
	}
	for _, n := range allNodes(d) {
		if got, want := n.Following(), naiveFollowing(n); got != want {
			t.Errorf("Following(%s pre=%d) differs from naive scan", n.Name, n.Pre())
		}
	}
	// Document-order traversal via NextInDocument visits exactly the
	// non-attribute nodes, in pre order.
	var seq []*Node
	for n := d.Root; n != nil; n = n.NextInDocument() {
		seq = append(seq, n)
	}
	for i := 1; i < len(seq); i++ {
		if Compare(seq[i-1], seq[i]) >= 0 {
			t.Fatalf("NextInDocument order violated at %d", i)
		}
	}
	want := 0
	d.Root.WalkDescendants(func(*Node) bool { want++; return true })
	if len(seq) != want {
		t.Errorf("NextInDocument visited %d nodes, want %d", len(seq), want)
	}
}
