package has

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLadderConstructors(t *testing.T) {
	tb := TestbedLadder()
	if tb.Len() != 8 || tb.Min() != 200_000 || tb.Max() != 2_750_000 {
		t.Fatalf("testbed ladder wrong: %v", tb)
	}
	sl := SimLadder()
	if sl.Len() != 6 || sl.Max() != 3_000_000 {
		t.Fatalf("sim ladder wrong: %v", sl)
	}
	fl := FineLadder()
	if fl.Len() != 12 || fl[0] != 100_000 || fl[11] != 1_200_000 {
		t.Fatalf("fine ladder wrong: %v", fl)
	}
	for _, l := range []Ladder{tb, sl, fl} {
		if err := l.Validate(); err != nil {
			t.Fatalf("paper ladder invalid: %v", err)
		}
	}
}

func TestLadderValidate(t *testing.T) {
	cases := []struct {
		name   string
		ladder Ladder
		ok     bool
	}{
		{"empty", Ladder{}, false},
		{"negative", Ladder{-1, 5}, false},
		{"zero", Ladder{0, 5}, false},
		{"descending", Ladder{5, 3}, false},
		{"duplicate", Ladder{5, 5}, false},
		{"NaN", Ladder{1, math.NaN(), 3}, false},
		{"+Inf", Ladder{1, math.Inf(1)}, false},
		{"-Inf", Ladder{math.Inf(-1), 1}, false},
		{"valid", Ladder{1, 2, 3}, true},
		{"largest finite", Ladder{1, math.MaxFloat64}, true},
		{"single", Ladder{7}, true},
	}
	for _, tc := range cases {
		err := tc.ladder.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestHighestAtMost(t *testing.T) {
	l := NewLadderKbps(100, 250, 500, 1000)
	cases := []struct {
		bps  float64
		want int
	}{
		{50_000, 0},  // below min: clamp to lowest
		{100_000, 0}, // exactly min
		{249_999, 0}, // just below second
		{250_000, 1}, // exactly second
		{600_000, 2}, // between
		{9e9, 3},     // above max
	}
	for _, tc := range cases {
		if got := l.HighestAtMost(tc.bps); got != tc.want {
			t.Errorf("HighestAtMost(%v) = %d, want %d", tc.bps, got, tc.want)
		}
	}
}

func TestHighestAtMostProperty(t *testing.T) {
	l := SimLadder()
	check := func(bpsRaw uint32) bool {
		bps := float64(bpsRaw)
		i := l.HighestAtMost(bps)
		if i < 0 || i >= l.Len() {
			return false
		}
		// The chosen rate is <= bps unless even the lowest exceeds bps.
		if l.Rate(i) > bps && i != 0 {
			return false
		}
		// No higher rate also fits.
		if i+1 < l.Len() && l.Rate(i+1) <= bps {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampAndRate(t *testing.T) {
	l := NewLadderKbps(100, 200)
	if l.Clamp(-5) != 0 || l.Clamp(0) != 0 || l.Clamp(1) != 1 || l.Clamp(9) != 1 {
		t.Fatal("Clamp wrong")
	}
	if l.Rate(-1) != 100_000 || l.Rate(99) != 200_000 {
		t.Fatal("Rate clamping wrong")
	}
}

func TestLadderClone(t *testing.T) {
	l := SimLadder()
	c := l.Clone()
	c[0] = 1
	if l[0] == 1 {
		t.Fatal("Clone aliased ladder")
	}
}

func TestNewMPD(t *testing.T) {
	m, err := NewMPD(SimLadder(), 10*time.Second, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Representations) != 6 {
		t.Fatalf("reps = %d", len(m.Representations))
	}
	if m.Representations[5].ID != "3000k" {
		t.Fatalf("rep ID = %q", m.Representations[5].ID)
	}
	if got := m.Ladder(); got.Len() != 6 || got.Max() != 3e6 {
		t.Fatalf("ladder round-trip wrong: %v", got)
	}
	// A 10 s segment at 1 Mbps is 1.25 MB.
	if got := m.SegmentBytes(3); got != 1_250_000 {
		t.Fatalf("SegmentBytes = %d", got)
	}
	if m.SegmentSeconds() != 10 {
		t.Fatalf("SegmentSeconds = %v", m.SegmentSeconds())
	}
}

// TestNewMPDIDs: every representation ID is the rate in kbps as %.0f
// formats it — rounded exactly, ties to even — on the integer path
// below 2^62 kbps and on AppendFloat's at and above it.
func TestNewMPDIDs(t *testing.T) {
	const k62 = 1 << 62 // kbps
	for _, c := range []struct {
		bps  float64
		want string // "" where only the %.0f oracle is checked
	}{
		{500, "0k"}, {1500, "2k"}, {2500, "2k"}, {3500, "4k"}, // half-way rungs
		{999_500, "1000k"}, {1_000_500, "1000k"}, {123_456_789.5, "123457k"},
		{1, "0k"}, {499.999, "0k"}, {500.001, "1k"}, {math.SmallestNonzeroFloat64, "0k"}, // sub-kbps
		{100_000, "100k"}, {790_000, "790k"}, {1e12, "1000000000k"},
		{(k62 - 1024) * 1000, ""}, {k62 * 1000, "4611686018427387904k"}, // the last float below 2^62 kbps, and 2^62
		{2 * k62 * 1000, "9223372036854775808k"}, {1e300, ""}, {math.MaxFloat64, ""}, // at and above 2^63
	} {
		m, err := NewMPD(Ladder{c.bps}, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Representations[0].ID, fmt.Sprintf("%.0fk", c.bps/1000)
		if got != want || (c.want != "" && got != c.want) {
			t.Errorf("rung %v bps: ID %q, want %q", c.bps, got, want)
		}
	}
	for _, l := range []Ladder{SimLadder(), FineLadder(), TestbedLadder()} {
		m, err := NewMPD(l, time.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range l {
			if got, want := m.Representations[i].ID, fmt.Sprintf("%.0fk", r/1000); got != want {
				t.Errorf("rung %v: ID %q, want %q", r, got, want)
			}
		}
	}
}

func TestNewMPDValidation(t *testing.T) {
	if _, err := NewMPD(Ladder{}, time.Second, 10); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewMPD(SimLadder(), 0, 10); err == nil {
		t.Error("zero segment duration accepted")
	}
	if _, err := NewMPD(SimLadder(), time.Second, -1); err == nil {
		t.Error("negative segment count accepted")
	}
}

func TestSegmentBytesAtCBR(t *testing.T) {
	m, err := NewMPD(SimLadder(), 2*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got := m.SegmentBytesAt(i, 3); got != m.SegmentBytes(3) {
			t.Fatalf("CBR segment %d sized %d", i, got)
		}
	}
}

func TestSegmentBytesAtVBR(t *testing.T) {
	m, err := NewMPD(SimLadder(), 2*time.Second, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m.SizeJitter = 0.3
	base := m.SegmentBytes(3)
	var sum float64
	distinct := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		sz := m.SegmentBytesAt(i, 3)
		if sz < int64(float64(base)*0.69) || sz > int64(float64(base)*1.31) {
			t.Fatalf("segment %d size %d outside +/-30%% of %d", i, sz, base)
		}
		// Deterministic: same (idx, rep) -> same size.
		if again := m.SegmentBytesAt(i, 3); again != sz {
			t.Fatal("VBR sizing not deterministic")
		}
		sum += float64(sz)
		distinct[sz] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("VBR produced only %d distinct sizes", len(distinct))
	}
	mean := sum / 1000
	if mean < float64(base)*0.95 || mean > float64(base)*1.05 {
		t.Fatalf("VBR mean %v strays from base %d", mean, base)
	}
	// Jitter clamps at 0.9.
	m.SizeJitter = 5
	if sz := m.SegmentBytesAt(0, 0); sz <= 0 {
		t.Fatalf("clamped jitter produced size %d", sz)
	}
}
