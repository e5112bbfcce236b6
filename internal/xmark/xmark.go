// Package xmark generates XMark-schema-compatible XML documents for the
// evaluation (§VII). The paper used the XMark xmlgen tool at scale factors
// 0.1–1.6 (10–160 MB); this deterministic generator produces the same
// element shapes the benchmark query touches — site/people/person with @id,
// name and a nested age, and site/open_auctions/open_auction with
// seller/@person and annotation/author — plus description filler to reach a
// requested byte size.
package xmark

import (
	"fmt"
	"strings"

	"distxq/internal/core"
	"distxq/internal/xdm"
)

// rng is a small deterministic linear congruential generator so documents
// are reproducible across runs and platforms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed*2862933555777941757 + 3037000493} }

func (r *rng) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state >> 16
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var firstNames = []string{
	"Ying", "Nan", "Peter", "Maarten", "Torsten", "Jens", "Stefan", "Jan",
	"Anna", "Kim", "Lena", "Milo", "Sven", "Femke", "Ada", "Noor",
}

var lastNames = []string{
	"Zhang", "Tang", "Boncz", "Kersten", "Grust", "Teubner", "Manegold",
	"Rittinger", "deVries", "Mullender", "Nes", "Schmidt",
}

var words = []string{
	"auction", "vintage", "rare", "collector", "mint", "boxed", "signed",
	"limited", "edition", "classic", "antique", "restored", "original",
	"certified", "pristine", "exceptional", "curious", "remarkable",
}

// Config controls document generation.
type Config struct {
	// Seed makes output deterministic per value.
	Seed uint64
	// Persons / Auctions / Items set entity counts directly. Items populate
	// the site/regions section of the people document — content the
	// benchmark query never touches, which function shipping therefore
	// avoids transferring (in real XMark, people are a fraction of a site).
	Persons  int
	Auctions int
	Items    int
	// FillerBytes approximates extra description text per entity, used to
	// scale documents to a target size.
	FillerBytes int
	// MinAge/MaxAge bound the uniform age distribution. The Figure 10
	// experiment selects age > 45; with ages in [18, 50) roughly 13% of
	// persons match, giving the ~5× runtime-projection advantage the paper
	// reports.
	MinAge, MaxAge int
}

// DefaultConfig returns the configuration used by the benchmark harness.
func DefaultConfig() Config {
	return Config{Seed: 42, Persons: 200, Auctions: 400, Items: 300, FillerBytes: 256, MinAge: 18, MaxAge: 50}
}

// ForSize returns a config scaled so the combined people+auctions documents
// serialize to roughly totalBytes (split evenly).
func ForSize(totalBytes int64) Config {
	c := DefaultConfig()
	// One person entry is ~220 bytes + filler; one auction ~420 + filler.
	perPerson := int64(220 + c.FillerBytes)
	perAuction := int64(420 + c.FillerBytes)
	perItem := int64(160 + c.FillerBytes)
	half := totalBytes / 2
	// The people document splits ~30% people, ~70% regions/items (real
	// XMark sites are dominated by regions and closed auctions).
	c.Persons = int(half * 3 / 10 / perPerson)
	if c.Persons < 4 {
		c.Persons = 4
	}
	c.Items = int(half * 7 / 10 / perItem)
	if c.Items < 4 {
		c.Items = 4
	}
	c.Auctions = int(half / perAuction)
	if c.Auctions < 4 {
		c.Auctions = 4
	}
	return c
}

func (r *rng) filler(n int) string {
	if n <= 0 {
		return ""
	}
	var sb strings.Builder
	for sb.Len() < n {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(words[r.intn(len(words))])
	}
	return sb.String()
}

// appendPerson builds one site/people/person entry with the given id.
func appendPerson(people *xdm.Node, r *rng, c Config, id int) {
	p := xdm.NewElement("person")
	p.SetAttr("id", fmt.Sprintf("person%d", id))
	name := xdm.NewElement("name")
	name.AppendChild(xdm.NewText(
		firstNames[r.intn(len(firstNames))] + " " + lastNames[r.intn(len(lastNames))]))
	p.AppendChild(name)
	email := xdm.NewElement("emailaddress")
	email.AppendChild(xdm.NewText(fmt.Sprintf("mailto:p%d@example.org", id)))
	p.AppendChild(email)
	profile := xdm.NewElement("profile")
	profile.SetAttr("income", fmt.Sprintf("%d", 20000+r.intn(80000)))
	age := xdm.NewElement("age")
	span := c.MaxAge - c.MinAge
	if span <= 0 {
		span = 1
	}
	age.AppendChild(xdm.NewText(fmt.Sprintf("%d", c.MinAge+r.intn(span))))
	profile.AppendChild(age)
	edu := xdm.NewElement("education")
	edu.AppendChild(xdm.NewText([]string{"High School", "College", "Graduate School"}[r.intn(3)]))
	profile.AppendChild(edu)
	if c.FillerBytes > 0 {
		desc := xdm.NewElement("description")
		desc.AppendChild(xdm.NewText(r.filler(c.FillerBytes)))
		profile.AppendChild(desc)
	}
	p.AppendChild(profile)
	addr := xdm.NewElement("address")
	city := xdm.NewElement("city")
	city.AppendChild(xdm.NewText([]string{"Amsterdam", "Utrecht", "Delft", "Leiden"}[r.intn(4)]))
	addr.AppendChild(city)
	p.AppendChild(addr)
	people.AppendChild(p)
}

// PeopleDocument generates the site/people document (xmk.xml).
func PeopleDocument(c Config, uri string) *xdm.Document {
	r := newRNG(c.Seed)
	d := xdm.NewDocument(uri)
	site := xdm.NewElement("site")
	people := xdm.NewElement("people")
	site.AppendChild(people)
	for i := 0; i < c.Persons; i++ {
		appendPerson(people, r, c, i)
	}
	// site/regions/*/item: the bulk of an XMark site the query ignores.
	regions := xdm.NewElement("regions")
	regionNames := []string{"europe", "namerica", "asia"}
	regionEls := map[string]*xdm.Node{}
	for _, rn := range regionNames {
		el := xdm.NewElement(rn)
		regionEls[rn] = el
		regions.AppendChild(el)
	}
	for i := 0; i < c.Items; i++ {
		item := xdm.NewElement("item")
		item.SetAttr("id", fmt.Sprintf("item%d", i))
		name := xdm.NewElement("name")
		name.AppendChild(xdm.NewText(words[r.intn(len(words))] + " " + words[r.intn(len(words))]))
		item.AppendChild(name)
		payment := xdm.NewElement("payment")
		payment.AppendChild(xdm.NewText([]string{"Cash", "Creditcard", "Money order"}[r.intn(3)]))
		item.AppendChild(payment)
		if c.FillerBytes > 0 {
			desc := xdm.NewElement("description")
			desc.AppendChild(xdm.NewText(r.filler(c.FillerBytes)))
			item.AppendChild(desc)
		}
		qty := xdm.NewElement("quantity")
		qty.AppendChild(xdm.NewText(fmt.Sprintf("%d", 1+r.intn(5))))
		item.AppendChild(qty)
		regionEls[regionNames[r.intn(len(regionNames))]].AppendChild(item)
	}
	site.AppendChild(regions)
	d.Root.AppendChild(site)
	d.Freeze()
	return d
}

// AuctionsDocument generates the site/open_auctions document
// (xmk.auctions.xml); seller/@person references the people document ids.
func AuctionsDocument(c Config, uri string) *xdm.Document {
	r := newRNG(c.Seed + 1)
	d := xdm.NewDocument(uri)
	site := xdm.NewElement("site")
	auctions := xdm.NewElement("open_auctions")
	site.AppendChild(auctions)
	persons := c.Persons
	if persons < 1 {
		persons = 1
	}
	for i := 0; i < c.Auctions; i++ {
		a := xdm.NewElement("open_auction")
		a.SetAttr("id", fmt.Sprintf("open_auction%d", i))
		seller := xdm.NewElement("seller")
		seller.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
		a.AppendChild(seller)
		initial := xdm.NewElement("initial")
		initial.AppendChild(xdm.NewText(fmt.Sprintf("%d.%02d", 1+r.intn(200), r.intn(100))))
		a.AppendChild(initial)
		// bidder history and the auction description carry the bulk of an
		// open_auction entry; the annotation the query returns stays small
		// (author plus a short happiness note), as in real XMark data.
		for b := 0; b < 2; b++ {
			bidder := xdm.NewElement("bidder")
			date := xdm.NewElement("date")
			date.AppendChild(xdm.NewText(fmt.Sprintf("%02d/%02d/2008", 1+r.intn(12), 1+r.intn(28))))
			bidder.AppendChild(date)
			personref := xdm.NewElement("personref")
			personref.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
			bidder.AppendChild(personref)
			incr := xdm.NewElement("increase")
			incr.AppendChild(xdm.NewText(fmt.Sprintf("%d.00", 1+r.intn(50))))
			bidder.AppendChild(incr)
			a.AppendChild(bidder)
		}
		if c.FillerBytes > 0 {
			desc := xdm.NewElement("description")
			desc.AppendChild(xdm.NewText(r.filler(c.FillerBytes)))
			a.AppendChild(desc)
		}
		ann := xdm.NewElement("annotation")
		author := xdm.NewElement("author")
		author.SetAttr("person", fmt.Sprintf("person%d", r.intn(persons)))
		ann.AppendChild(author)
		happy := xdm.NewElement("happiness")
		happy.AppendChild(xdm.NewText(fmt.Sprintf("%d", 1+r.intn(10))))
		ann.AppendChild(happy)
		a.AppendChild(ann)
		qty := xdm.NewElement("quantity")
		qty.AppendChild(xdm.NewText(fmt.Sprintf("%d", 1+r.intn(10))))
		a.AppendChild(qty)
		auctions.AppendChild(a)
	}
	d.Root.AppendChild(site)
	d.Freeze()
	return d
}

// BenchmarkQuery is the §VII evaluation query over two peers: select the
// persons younger than 40 at peer1, join with open auctions at peer2 on
// seller/@person, and return the annotation authors. (The paper's text has
// `$c/child::seller` — an obvious typo for `$e/...`, since $c is the whole
// auctions document; we follow the intended Q2 template.)
func BenchmarkQuery(peer1, peer2 string) string {
	return fmt.Sprintf(`
(let $t := (let $s := doc("xrpc://%s/xmk.xml")/child::site/child::people/child::person
            return for $x in $s return
                   if ($x/descendant::age < 40) then $x else ())
 return for $e in (let $c := doc("xrpc://%s/xmk.auctions.xml")
                   return $c/descendant::open_auction)
        return if ($e/child::seller/attribute::person = $t/attribute::id)
               then $e/child::annotation else ())/child::author`, peer1, peer2)
}

// PeopleShardDocument generates the shard'th of `shards` horizontal
// partitions of a people document: person ids are distributed round-robin
// (person i lives on shard i%shards), so shard sizes stay balanced and ids
// remain globally unique across the federation. The union of all shards
// carries exactly the persons of cfg — the sharded-XMark scatter-gather
// scenario queries every shard in place and gathers per-peer results.
func PeopleShardDocument(c Config, shard, shards int, uri string) *xdm.Document {
	if shards < 1 {
		shards = 1
	}
	d := xdm.NewDocument(uri)
	site := xdm.NewElement("site")
	people := xdm.NewElement("people")
	site.AppendChild(people)
	for i := shard % shards; i < c.Persons; i += shards {
		// Seed per person id, not per shard: person i carries identical
		// content under every shard layout, so query results do not depend
		// on how the federation is partitioned.
		appendPerson(people, newRNG(c.Seed+uint64(i)*2654435761), c, i)
	}
	d.Root.AppendChild(site)
	d.Freeze()
	return d
}

// LogicalPeopleURI is the URI under which a sharded people federation
// registers as one logical document. Queries name it in fn:doc() and the
// shard-aware planner rewrites them into the scatter form (or the engine
// materializes the union of shards when the rewrite must fall back). The
// scheme is deliberately not xrpc://: a logical document has no single
// owning host for the ordinary decomposition to target.
const LogicalPeopleURI = "shard://xmark/people"

// PeopleShardPath is the peer-local document path every shard of the people
// federation is stored under.
const PeopleShardPath = "xmk.xml"

// PeopleRecordPath is the rooted path to the partitioned record sequence of
// the people document.
const PeopleRecordPath = "child::site/child::people/child::person"

// PeopleShardMap returns the shard map registering the sharded people
// federation (one PeopleShardDocument per peer, all stored as xmk.xml) as
// the logical document LogicalPeopleURI.
func PeopleShardMap(peers []string) core.ShardMap {
	return core.ShardMap{
		Logical:    LogicalPeopleURI,
		Peers:      append([]string(nil), peers...),
		ShardPath:  PeopleShardPath,
		RecordPath: PeopleRecordPath,
	}
}

// LogicalScatterQuery states the ScatterQuery workload against the logical
// document instead of hand-written `execute at` loops: the shard-aware
// planner must synthesize the same one-Bulk-RPC-per-peer scatter plan from
// it.
func LogicalScatterQuery() string {
	return fmt.Sprintf(`for $x in doc(%q)/child::site/child::people/child::person
return if ($x/descendant::age < 40) then $x/child::name else ()`, LogicalPeopleURI)
}

// ScatterQuery returns the multi-peer scatter-gather query of the sharded
// scenario: every peer evaluates the person filter over its local shard
// (`doc("xmk.xml")` resolves peer-locally), and the originator's
// variable-target loop gathers the per-peer results in peer order — the
// `for $p in $peers return execute at $p {...}` shape that dispatches one
// concurrent Bulk RPC per peer.
func ScatterQuery(peers []string) string {
	quoted := make([]string, len(peers))
	for i, p := range peers {
		// Escape for a double-quoted xq string literal: quotes double, and a
		// bare ampersand would be read as an entity reference.
		p = strings.ReplaceAll(p, "&", "&amp;")
		quoted[i] = `"` + strings.ReplaceAll(p, `"`, `""`) + `"`
	}
	return fmt.Sprintf(`
declare function young() as item()* {
  for $x in doc("xmk.xml")/child::site/child::people/child::person
  return if ($x/descendant::age < 40) then $x/child::name else ()
};
for $p in (%s) return execute at {$p} { young() }`, strings.Join(quoted, ", "))
}
