package testbed

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/flare-sim/flare/internal/abr"
	"github.com/flare-sim/flare/internal/core"
	"github.com/flare-sim/flare/internal/has"
	"github.com/flare-sim/flare/internal/lte"
	"github.com/flare-sim/flare/internal/oneapi"
	"github.com/flare-sim/flare/internal/sim"
)

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(10)
	if c.Speedup() != 10 {
		t.Fatalf("speedup %v", c.Speedup())
	}
	start := c.Now()
	time.Sleep(50 * time.Millisecond)
	elapsed := c.Now() - start
	if elapsed < 400*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("virtual elapsed %v for 50 ms wall at 10x", elapsed)
	}
	// Clamping.
	if NewVirtualClock(0).Speedup() != 1 {
		t.Fatal("speedup not clamped")
	}
}

func TestOverrideChannel(t *testing.T) {
	c := NewOverrideChannel(2, 5)
	if c.NumUEs() != 2 || c.ITbs(0) != 5 {
		t.Fatal("initial state wrong")
	}
	c.SetITbs(0, 12)
	if c.ITbs(0) != 12 || c.ITbs(1) != 5 {
		t.Fatal("SetITbs wrong")
	}
	c.SetITbs(1, 99) // clamped
	if c.ITbs(1) != lte.MaxITbs {
		t.Fatal("clamp failed")
	}
	c.SetITbs(5, 3) // out of range UE: no-op
}

func TestMediaServerServesMPDAndSegments(t *testing.T) {
	ms, err := NewMediaServer(has.TestbedLadder(), 2*time.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(MPDURL(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) == 0 {
		t.Fatalf("MPD fetch: %d", resp.StatusCode)
	}

	// Segment size must match the encoding exactly.
	resp, err = srv.Client().Get(SegmentURL(srv.URL, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	want := ms.MPD().SegmentBytes(2)
	if n != want {
		t.Fatalf("segment size %d, want %d", n, want)
	}

	// Out-of-range requests 404.
	for _, path := range []string{
		SegmentURL(srv.URL, 99, 0),
		SegmentURL(srv.URL, 0, 99),
	} {
		resp, err := srv.Client().Get(path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

func TestENodeBShapesThroughput(t *testing.T) {
	ms, err := NewMediaServer(has.TestbedLadder(), 2*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	enb, err := NewENodeB(ENodeBConfig{NumUEs: 1, InitialITbs: 2, Speedup: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer enb.Stop()
	_, client, err := enb.Attach(0, lte.ClassVideo)
	if err != nil {
		t.Fatal(err)
	}

	// Download one 790 kbps segment (~197 KB) through the shaped path.
	start := enb.Clock().Seconds()
	resp, err := client.Get(SegmentURL(srv.URL, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := enb.Clock().Seconds() - start
	if n != ms.MPD().SegmentBytes(3) {
		t.Fatalf("got %d bytes", n)
	}
	// The cell at iTbs 2 carries ~4.4 Mbps: the 1.58 Mbit segment needs
	// at least ~0.3 virtual seconds; allow generous slack both ways.
	tput := float64(n) * 8 / elapsed
	if tput > 1.5*lte.CellRateBps(2) {
		t.Fatalf("throughput %.0f exceeds shaped link %.0f", tput, lte.CellRateBps(2))
	}
	if tput < 0.2*lte.CellRateBps(2) {
		t.Fatalf("throughput %.0f implausibly low", tput)
	}
}

func TestENodeBValidation(t *testing.T) {
	if _, err := NewENodeB(ENodeBConfig{NumUEs: 0}); err == nil {
		t.Fatal("zero UEs accepted")
	}
}

func TestEPCAttachLimits(t *testing.T) {
	enb, err := NewENodeB(ENodeBConfig{NumUEs: 2, InitialITbs: 10, Speedup: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer enb.Stop()
	epc := NewEPC(enb)
	if _, _, err := epc.Attach(lte.ClassVideo); err != nil {
		t.Fatal(err)
	}
	if _, _, err := epc.Attach(lte.ClassData); err != nil {
		t.Fatal(err)
	}
	if _, _, err := epc.Attach(lte.ClassData); err == nil {
		t.Fatal("third attach on a 2-UE cell accepted")
	}
	if epc.NumDataSessions() != 1 {
		t.Fatalf("data sessions %d", epc.NumDataSessions())
	}
	if len(epc.Sessions()) != 2 {
		t.Fatalf("sessions %d", len(epc.Sessions()))
	}
}

func TestUEPlayerStreamsWithFestive(t *testing.T) {
	ms, err := NewMediaServer(has.TestbedLadder(), time.Second, 12)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	enb, err := NewENodeB(ENodeBConfig{NumUEs: 1, InitialITbs: 8, Speedup: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer enb.Stop()
	epc := NewEPC(enb)
	_, client, err := epc.Attach(lte.ClassVideo)
	if err != nil {
		t.Fatal(err)
	}

	player, err := NewUEPlayer(UEPlayerConfig{
		MediaBaseURL:     srv.URL,
		MaxBufferSeconds: 20,
	}, client, abr.NewFestive(testRNG()), enb.Clock())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := player.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := player.Stats()
	if st.Segments != 12 {
		t.Fatalf("downloaded %d segments, want 12", st.Segments)
	}
	if st.AvgRateBps <= 0 {
		t.Fatal("zero average rate")
	}
}

func TestUEPlayerValidation(t *testing.T) {
	clock := NewVirtualClock(1)
	if _, err := NewUEPlayer(UEPlayerConfig{}, nil, nil, clock); err == nil {
		t.Fatal("nil client/adapter accepted")
	}
}

// TestFullFLARETestbedLoop is the end-to-end testbed: media server +
// OneAPI server + software eNodeB + a FLARE-plugin UE, all over real
// HTTP. The plugin registers its ladder, the eNB reports stats per BAI,
// the OneAPI server assigns bitrates and GBRs, and the player follows
// the assignments.
func TestFullFLARETestbedLoop(t *testing.T) {
	ms, err := NewMediaServer(has.TestbedLadder(), time.Second, 15)
	if err != nil {
		t.Fatal(err)
	}
	mediaSrv := httptest.NewServer(ms.Handler())
	defer mediaSrv.Close()

	cfg := core.DefaultConfig()
	cfg.Delta = 1
	cfg.BAI = time.Second
	oneAPI := oneapi.NewServer(cfg, nil)
	apiSrv := httptest.NewServer(oneapi.Handler(oneAPI))
	defer apiSrv.Close()

	enb, err := NewENodeB(ENodeBConfig{
		NumUEs:        1,
		InitialITbs:   8,
		Speedup:       30,
		OneAPIBaseURL: apiSrv.URL,
		StatsInterval: time.Second,
		HTTPClient:    apiSrv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer enb.Stop()
	epc := NewEPC(enb)
	sess, client, err := epc.Attach(lte.ClassVideo)
	if err != nil {
		t.Fatal(err)
	}

	// The plugin registers the flow's ladder with the OneAPI server.
	plugin := oneapi.NewClient(apiSrv.URL, 0, sess.BearerID, apiSrv.Client())
	if err := plugin.Open(has.TestbedLadder(), core.Preferences{}); err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()

	player, err := NewUEPlayer(UEPlayerConfig{
		MediaBaseURL:     mediaSrv.URL,
		MaxBufferSeconds: 15,
		PollAssignment: func() float64 {
			a, ok, err := plugin.Poll()
			if err != nil || !ok {
				return 0
			}
			return a.RateBps
		},
	}, client, abr.NewFlarePlugin(), enb.Clock())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := player.Run(ctx); err != nil {
		t.Fatal(err)
	}
	st := player.Stats()
	if st.Segments != 15 {
		t.Fatalf("downloaded %d segments, want 15", st.Segments)
	}
	// The cell is ~9 Mbps at iTbs 8 with one client: the assignment
	// must have climbed off the lowest rung.
	if st.AvgRateBps <= 200_000 {
		t.Fatalf("assignments never climbed: avg %.0f", st.AvgRateBps)
	}
	// GBR must have been installed at the eNodeB.
	totals, err := enb.BearerTotals(sess.BearerID)
	if err != nil {
		t.Fatal(err)
	}
	if totals.Bytes == 0 || totals.RBs == 0 {
		t.Fatal("RB & Rate Trace Module recorded nothing")
	}
}

func testRNG() *sim.RNG { return sim.NewRNG(1) }

func TestENodeBOverrideChangesThroughput(t *testing.T) {
	// The iTbs Override Module drives the dynamic scenario: link
	// capacity observed through the air interface must follow an
	// override from the trough (iTbs 1) to the peak (iTbs 12).
	ms, err := NewMediaServer(has.TestbedLadder(), time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	enb, err := NewENodeB(ENodeBConfig{NumUEs: 1, InitialITbs: 1, Speedup: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer enb.Stop()
	_, client, err := enb.Attach(0, lte.ClassVideo)
	if err != nil {
		t.Fatal(err)
	}

	fetch := func() float64 {
		start := enb.Clock().Seconds()
		resp, err := client.Get(SegmentURL(srv.URL, 0, 4)) // 1100 kbps segment
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return float64(n) * 8 / (enb.Clock().Seconds() - start)
	}

	troughTput := fetch()
	enb.Channel().SetITbs(0, 12)
	peakTput := fetch()
	if peakTput < 1.3*troughTput {
		t.Fatalf("override had no effect: trough %.0f, peak %.0f bps", troughTput, peakTput)
	}
}
