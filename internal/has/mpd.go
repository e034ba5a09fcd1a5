package has

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Representation describes one encoding of the video, mirroring a DASH
// MPD Representation element.
type Representation struct {
	// ID names the representation (e.g. "790k").
	ID string `json:"id"`
	// BandwidthBps is the encoding bitrate in bits/s.
	BandwidthBps float64 `json:"bandwidth_bps"`
}

// MPD is the Media Presentation Description: segment timing plus the
// available representations. The FLARE plugin extracts the bitrate ladder
// from it and registers the ladder with the OneAPI server.
//
// An MPD is immutable once players stream from it: one value is shared
// by every player of a cell, none of which writes to it.
type MPD struct {
	// SegmentDuration is the play length of every segment.
	SegmentDuration time.Duration `json:"segment_duration"`
	// Representations are the available encodings, ascending by rate.
	Representations []Representation `json:"representations"`
	// TotalSegments is the number of segments in the presentation;
	// 0 means unbounded (live).
	TotalSegments int `json:"total_segments"`
	// SizeJitter enables VBR encodings: segment i at representation r
	// is sized base*(1 + SizeJitter*u(i, r)) with u deterministic in
	// [-1, 1]. 0 (the default) is constant-bitrate. Values are clamped
	// to [0, 0.9] when sizing.
	SizeJitter float64 `json:"size_jitter,omitempty"`

	// ladder is the representations' bitrates as NewMPD derived them:
	// the one read-only Ladder all players of the presentation share.
	// Nil for an MPD built any other way (decoded from JSON).
	ladder Ladder
}

// NewMPD builds an MPD from a ladder. Its Representations must not be
// modified afterwards: players stream by the ladder derived here.
func NewMPD(ladder Ladder, segDur time.Duration, totalSegments int) (*MPD, error) {
	if err := ladder.Validate(); err != nil {
		return nil, err
	}
	if segDur <= 0 {
		return nil, fmt.Errorf("has: segment duration must be positive, got %v", segDur)
	}
	if totalSegments < 0 {
		return nil, fmt.Errorf("has: negative segment count %d", totalSegments)
	}
	// The IDs ("790k": the rate in kbps, as %.0f rounds it) are
	// formatted into one buffer and cut from one string, not allocated
	// one per rung. A formatted rate holds no 'k', so each ID runs to
	// the next one. Below 2^62 kbps the rate is rounded as an integer:
	// %.0f rounds exactly, ties to even, as RoundToEven does, without
	// the big-decimal path AppendFloat takes at a fixed precision.
	buf := make([]byte, 0, 128)
	for _, r := range ladder {
		if k := r / 1000; k < 1<<62 {
			buf = strconv.AppendInt(buf, int64(math.RoundToEven(k)), 10)
		} else {
			buf = strconv.AppendFloat(buf, k, 'f', 0, 64)
		}
		buf = append(buf, 'k')
	}
	ids := string(buf)
	reps := make([]Representation, len(ladder))
	for i, r := range ladder {
		n := strings.IndexByte(ids, 'k') + 1
		reps[i] = Representation{ID: ids[:n], BandwidthBps: r}
		ids = ids[n:]
	}
	return &MPD{
		SegmentDuration: segDur,
		Representations: reps,
		TotalSegments:   totalSegments,
		ladder:          ladder.Clone(),
	}, nil
}

// Ladder extracts the bitrate ladder from the representations. Every
// call returns a fresh slice the caller owns.
func (m *MPD) Ladder() Ladder {
	l := make(Ladder, len(m.Representations))
	for i, r := range m.Representations {
		l[i] = r.BandwidthBps
	}
	return l
}

// SharedLadder returns the ladder players stream by: the read-only one
// NewMPD derived, shared by every caller, or a fresh extraction when
// there is none. Callers must not modify it.
func (m *MPD) SharedLadder() Ladder {
	if m.ladder != nil {
		return m.ladder
	}
	return m.Ladder()
}

// Rate returns the bitrate of the representation at the given index
// (clamped to the available range, like Ladder.Rate) without
// materialising a Ladder. It panics when the MPD has no
// representations, mirroring Ladder.Clamp.
func (m *MPD) Rate(quality int) float64 {
	n := len(m.Representations)
	if n == 0 {
		panic("has: Rate on MPD with no representations")
	}
	if quality < 0 {
		quality = 0
	} else if quality >= n {
		quality = n - 1
	}
	return m.Representations[quality].BandwidthBps
}

// SegmentBytes returns the size in bytes of one segment at the given
// representation index (clamped).
func (m *MPD) SegmentBytes(quality int) int64 {
	return int64(m.Rate(quality) * m.SegmentDuration.Seconds() / 8)
}

// SegmentBytesAt returns the size of segment idx at the given
// representation, applying the deterministic VBR jitter. CBR
// presentations (SizeJitter 0) size every segment identically.
func (m *MPD) SegmentBytesAt(idx, quality int) int64 {
	base := m.SegmentBytes(quality)
	j := m.SizeJitter
	if j <= 0 {
		return base
	}
	if j > 0.9 {
		j = 0.9
	}
	return int64(float64(base) * (1 + j*vbrNoise(idx, quality)))
}

// vbrNoise maps (segment, representation) to a deterministic value in
// [-1, 1] via a splitmix64-style mix, so every player and the media
// server agree on each segment's size.
func vbrNoise(idx, quality int) float64 {
	z := uint64(idx)*0x9e3779b97f4a7c15 + uint64(quality)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<52) - 1 // [0, 2) - 1 -> [-1, 1)
}

// SegmentSeconds returns the segment duration in seconds.
func (m *MPD) SegmentSeconds() float64 { return m.SegmentDuration.Seconds() }
