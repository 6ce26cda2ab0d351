package quadtree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sensjoin/internal/zorder"
)

// testCodec returns a codec over the paper's experiment grid
// (2 flag bits; temp 9 bits, x/y 11 bits each) plus the grid itself.
func testCodec(t *testing.T) (*Codec, *zorder.Grid) {
	t.Helper()
	temp, err := zorder.NewDim("temp", 0, 40, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := zorder.NewDim("x", 0, 1050, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := zorder.NewDim("y", 0, 1050, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := zorder.NewGrid(2, []zorder.Dim{temp, x, y})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCodec(g.Levels())
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(nil); err == nil {
		t.Fatal("empty schedule must fail")
	}
	if _, err := NewCodec([]int{0}); err == nil {
		t.Fatal("zero-width level must fail")
	}
	if _, err := NewCodec([]int{17}); err == nil {
		t.Fatal("over-wide level must fail")
	}
	if _, err := NewCodec([]int{16, 16, 16, 16, 16}); err == nil {
		t.Fatal(">64 total bits must fail")
	}
	c, err := NewCodec([]int{2, 3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBits() != 10 {
		t.Fatalf("TotalBits = %d, want 10", c.TotalBits())
	}
}

func TestEmptySet(t *testing.T) {
	c, _ := testCodec(t)
	e := c.Encode(nil)
	if !e.Empty() || e.ByteLen() != 0 {
		t.Fatalf("empty set encoding = %+v", e)
	}
	keys, err := c.Decode(e)
	if err != nil || len(keys) != 0 {
		t.Fatalf("decode empty: %v %v", keys, err)
	}
	n, err := c.Count(e)
	if err != nil || n != 0 {
		t.Fatal("count of empty should be 0")
	}
}

func TestSinglePointRoundtrip(t *testing.T) {
	c, g := testCodec(t)
	k := g.Encode(0b10, []float64{23.2, 100, 200})
	e := c.Encode([]zorder.Key{k})
	// A single point lists as '1' + 33 suffix bits + '0' = 35 bits.
	if e.Bits != 35 {
		t.Fatalf("single point encoding = %d bits, want 35", e.Bits)
	}
	keys, err := c.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != k {
		t.Fatalf("roundtrip = %v, want [%d]", keys, k)
	}
}

func TestDuplicatesRemoved(t *testing.T) {
	c, g := testCodec(t)
	k := g.Encode(0b11, []float64{20, 50, 50})
	e := c.Encode([]zorder.Key{k, k, k})
	n, err := c.Count(e)
	if err != nil || n != 1 {
		t.Fatalf("count = %d, want 1 (set semantics)", n)
	}
}

func randomKeys(g *zorder.Grid, rng *rand.Rand, n int, clustered bool) []zorder.Key {
	keys := make([]zorder.Key, n)
	var baseT, baseX, baseY float64
	for i := range keys {
		if clustered {
			if i%24 == 0 {
				baseT = rng.Float64() * 40
				baseX = rng.Float64() * 1000
				baseY = rng.Float64() * 1000
			}
			keys[i] = g.Encode(0b11, []float64{
				baseT + rng.Float64()*0.5,
				baseX + rng.Float64()*40,
				baseY + rng.Float64()*40,
			})
		} else {
			keys[i] = g.Encode(uint64(1+rng.Intn(3)), []float64{
				rng.Float64() * 40, rng.Float64() * 1050, rng.Float64() * 1050,
			})
		}
	}
	return keys
}

func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	c, g := testCodec(t)
	f := func(seed int64, n uint8, clustered bool) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := randomKeys(g, rng, int(n)+1, clustered)
		want := NormalizeKeys(keys)
		e := c.Encode(keys)
		got, err := c.Decode(e)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalEncoding(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(11))
	keys := randomKeys(g, rng, 300, true)
	e1 := c.Encode(keys)
	// Shuffle and re-encode: identical bitstring.
	shuffled := append([]zorder.Key(nil), keys...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	e2 := c.Encode(shuffled)
	if e1.Bits != e2.Bits || !reflect.DeepEqual(e1.Data, e2.Data) {
		t.Fatal("encoding must be canonical (order independent)")
	}
	// Decode + re-encode: identical bitstring.
	dec, err := c.Decode(e1)
	if err != nil {
		t.Fatal(err)
	}
	e3 := c.Encode(dec)
	if !reflect.DeepEqual(e1, e3) {
		t.Fatal("decode/encode must be idempotent")
	}
}

func TestQuickUnionIntersect(t *testing.T) {
	c, g := testCodec(t)
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomKeys(g, rng, int(na%60)+1, true)
		b := randomKeys(g, rng, int(nb%60)+1, true)
		ea, eb := c.Encode(a), c.Encode(b)
		// Reference via maps.
		setA := map[zorder.Key]bool{}
		for _, k := range a {
			setA[k] = true
		}
		set := map[zorder.Key]bool{}
		for k := range setA {
			set[k] = true
		}
		both := map[zorder.Key]bool{}
		for _, k := range b {
			if setA[k] {
				both[k] = true
			}
			set[k] = true
		}
		u, err := c.Union(ea, eb)
		if err != nil {
			return false
		}
		uk, err := c.Decode(u)
		if err != nil || len(uk) != len(set) {
			return false
		}
		for _, k := range uk {
			if !set[k] {
				return false
			}
		}
		iv, err := c.Intersect(ea, eb)
		if err != nil {
			return false
		}
		ik, err := c.Decode(iv)
		if err != nil || len(ik) != len(both) {
			return false
		}
		for _, k := range ik {
			if !both[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionWithEmpty(t *testing.T) {
	c, g := testCodec(t)
	keys := randomKeys(g, rand.New(rand.NewSource(3)), 20, false)
	e := c.Encode(keys)
	u, err := c.Union(e, Encoded{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, e) {
		t.Fatal("union with empty must be identity")
	}
	iv, err := c.Intersect(e, Encoded{})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Empty() {
		t.Fatal("intersection with empty must be empty")
	}
}

func TestContainsAndInsert(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(g, rng, 50, true)
	e := c.Encode(keys)
	for _, k := range keys {
		ok, err := c.Contains(e, k)
		if err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v", k, ok, err)
		}
	}
	probe := g.Encode(0b11, []float64{39.9, 1049, 3})
	if ContainsKey(NormalizeKeys(keys), probe) {
		t.Skip("probe collided with random keys")
	}
	ok, err := c.Contains(e, probe)
	if err != nil || ok {
		t.Fatal("Contains must reject absent key")
	}
	e2, err := c.Insert(e, probe)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = c.Contains(e2, probe)
	if err != nil || !ok {
		t.Fatal("Insert must add the key")
	}
	n1, _ := c.Count(e)
	n2, _ := c.Count(e2)
	if n2 != n1+1 {
		t.Fatalf("Insert changed count %d -> %d", n1, n2)
	}
}

// The headline property (paper §VI-B): for spatially correlated keys the
// quadtree encoding is substantially smaller than listing raw keys, and
// for the paper's experiment roughly half the raw join-attribute bytes.
func TestCompressionBeatsRawOnClusteredData(t *testing.T) {
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(9))
	keys := NormalizeKeys(randomKeys(g, rng, 1500, true))
	e := c.Encode(keys)
	rawListBits := len(keys) * (c.TotalBits() + 2) // '1' + suffix each, '0' once
	if e.Bits >= rawListBits {
		t.Fatalf("tree (%d bits) not smaller than flat list (%d bits)", e.Bits, rawListBits)
	}
	// Against the raw 2-bytes-per-attribute wire format (3 attrs = 6 B):
	rawBytes := len(keys) * zorder.RawBytes(3)
	if e.ByteLen()*10 > rawBytes*8 {
		t.Fatalf("tree %d B vs raw %d B: expected clearly below 80%%", e.ByteLen(), rawBytes)
	}
}

func TestUncorrelatedStillBounded(t *testing.T) {
	// Even on uncorrelated keys the encoding must not exceed the flat
	// list by more than the single root index node.
	c, g := testCodec(t)
	rng := rand.New(rand.NewSource(13))
	keys := NormalizeKeys(randomKeys(g, rng, 500, false))
	e := c.Encode(keys)
	rawListBits := len(keys)*(c.TotalBits()+2) + 1
	if e.Bits > rawListBits {
		t.Fatalf("tree (%d bits) exceeds flat list (%d bits)", e.Bits, rawListBits)
	}
}

func TestDecodeErrors(t *testing.T) {
	c, _ := testCodec(t)
	// Truncated stream: an index node marker with nothing behind it.
	bad := Encoded{Data: []byte{0x00}, Bits: 3}
	if _, err := c.Decode(bad); err == nil {
		t.Fatal("truncated stream must fail")
	}
	// An index node with an empty presence mask is invalid.
	bad2 := Encoded{Data: []byte{0x00}, Bits: 5} // '0' + mask 0000
	if _, err := c.Decode(bad2); err == nil {
		t.Fatal("empty mask must fail")
	}
}

func TestKeySetHelpers(t *testing.T) {
	a := []zorder.Key{1, 3, 5, 7}
	b := []zorder.Key{3, 4, 7, 9}
	if got := UnionKeys(a, b); !reflect.DeepEqual(got, []zorder.Key{1, 3, 4, 5, 7, 9}) {
		t.Fatalf("UnionKeys = %v", got)
	}
	if got := IntersectKeys(a, b); !reflect.DeepEqual(got, []zorder.Key{3, 7}) {
		t.Fatalf("IntersectKeys = %v", got)
	}
	if !ContainsKey(a, 5) || ContainsKey(a, 6) {
		t.Fatal("ContainsKey wrong")
	}
	if got := NormalizeKeys([]zorder.Key{5, 1, 5, 3, 1}); !reflect.DeepEqual(got, []zorder.Key{1, 3, 5}) {
		t.Fatalf("NormalizeKeys = %v", got)
	}
	if NormalizeKeys(nil) != nil {
		t.Fatal("NormalizeKeys(nil) should be nil")
	}
}

// Size must equal the encoded byte length for every level schedule and
// input shape: duplicates, sorted or shuffled order, and the empty set.
func TestSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		var levels []int
		total := 0
		for depth := 1 + rng.Intn(6); len(levels) < depth; {
			w := 1 + rng.Intn(min(16, 48-total))
			levels = append(levels, w)
			if total += w; total >= 47 {
				break
			}
		}
		c, err := NewCodec(levels)
		if err != nil {
			t.Fatalf("levels %v: %v", levels, err)
		}
		keyMask := zorder.Key(1)<<uint(total) - 1
		// Clustered keys share a random prefix, so both point lists and
		// index nodes occur.
		keys := make([]zorder.Key, rng.Intn(200))
		prefix := zorder.Key(rng.Uint64()) & keyMask
		spread := zorder.Key(1)<<uint(rng.Intn(total)+1) - 1
		for i := range keys {
			keys[i] = (prefix ^ zorder.Key(rng.Uint64())&spread) & keyMask
			if i > 0 && rng.Intn(4) == 0 {
				keys[i] = keys[rng.Intn(i)] // duplicate
			}
		}
		sorted := NormalizeKeys(keys)
		for name, in := range map[string][]zorder.Key{"shuffled": keys, "sorted": sorted} {
			orig := append([]zorder.Key(nil), in...)
			want := c.Encode(in).ByteLen()
			if got := c.Size(in); got != want {
				t.Fatalf("levels %v, %d %s keys: Size %d, Encode %d bytes", levels, len(in), name, got, want)
			}
			if !slices.Equal(in, orig) {
				t.Fatalf("levels %v: %s input modified", levels, name)
			}
		}
		if !reflect.DeepEqual(c.Encode(keys), c.Encode(sorted)) {
			t.Fatalf("levels %v: sorted and shuffled inputs encode differently", levels)
		}
	}
	c, _ := NewCodec([]int{2, 3})
	for _, in := range [][]zorder.Key{nil, {}} {
		if got := c.Size(in); got != 0 || c.Encode(in).ByteLen() != 0 {
			t.Fatalf("empty set: Size %d", got)
		}
	}
}
