package sim

import (
	"context"
	"fmt"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// Streaming replay: BeginStream opens an incremental run, Feed consumes
// reference chunks as they arrive (from a network body, a growing
// file, a pipe — the caller chooses the chunking), and EndStream
// finalizes the Result. The three calls together are RunContext with
// the trace delivered piecewise instead of whole, and they work the
// same on the single-core Engine and the Multicore cluster.
//
// The state machine has three phases, advanced only by Feed:
//
//	warming    pos < warm: references evolve the machine state but
//	           charge nothing. A chunk spanning the warmup boundary is
//	           split there; crossing it resets the TLB statistics and
//	           arms timeline sampling, exactly as a batch run does.
//	measuring  pos >= warm: references charge cycles. With SampleEvery
//	           set, chunks are further split at interval boundaries and
//	           each completed interval appends a TimelineSample, which
//	           Feed returns so a serving layer can push rows live.
//	ended      EndStream: the trailing partial interval (if any) is
//	           recorded and the Result assembled.
//
// Equivalence to batch: Feed replays each chunk through replay, the same
// driver RunContext uses, which already cuts the stream at warmup,
// interval and cancellation boundaries; runPhase folds every
// per-reference tally additively, so a chunk boundary is just one more
// cut, invisible to every counter. A run fed in arbitrary chunks is
// therefore bit-identical — counters, timeline, and machine-state digest
// — to Run over the concatenated trace. TestStreamMatchesBatch and
// TestMulticoreStreamMatchesBatch hold this over ragged and randomized
// chunkings; the serving layer's end-to-end suites hold it across the
// wire.
//
// Streaming and the whole-trace entry points (Run/RunContext,
// Begin/Step) must not be interleaved on one machine: a stream is open
// from BeginStream until EndStream, and both batch entry points reset
// the replay state a stream depends on.

// BeginStream opens an incremental run. total is the stream's declared
// reference count (a .vmtrc header carries it), which fixes the warmup
// boundary exactly as Begin does for a whole trace: WarmupInstrs capped
// at half the trace. total < 0 means unknown — the configured
// WarmupInstrs applies uncapped, the one necessary divergence from
// batch (the cap needs a length), and EndStream skips the short-stream
// check. name labels the run's Result and any validation errors.
func (d *driver) BeginStream(name string, total int) error {
	if d.streaming {
		return fmt.Errorf("sim: BeginStream: stream %q already open", d.streamName)
	}
	d.streaming = true
	d.streamName = name
	d.streamTotal = total
	d.begin(total)
	return nil
}

// Feed replays the next chunk of the stream and returns the timeline
// samples the chunk completed (nil when sampling is off or no interval
// boundary was crossed; the returned slice aliases the sample buffer and
// stays valid through EndStream). Chunks are validated on entry with the
// same invariants batch replay enforces; a violation — or feeding past a
// declared total — fails with an error wrapping simerr.ErrTraceCorrupt
// and leaves the already-replayed prefix's state intact.
func (d *driver) Feed(refs []trace.Ref) ([]TimelineSample, error) {
	if !d.streaming {
		return nil, fmt.Errorf("sim: Feed without BeginStream")
	}
	if len(refs) == 0 {
		return nil, nil
	}
	if d.streamTotal >= 0 && d.pos+len(refs) > d.streamTotal {
		return nil, fmt.Errorf("sim: stream %q overfed: %d more references after %d of a declared %d: %w",
			d.streamName, len(refs), d.pos, d.streamTotal, simerr.ErrTraceCorrupt)
	}
	if err := trace.ValidateRefs(d.streamName, d.pos, refs); err != nil {
		return nil, err
	}
	base := len(d.samples)
	if err := d.replay(context.Background(), refs, d.runPhase); err != nil {
		return nil, err
	}
	return d.samples[base:len(d.samples):len(d.samples)], nil
}

// EndStream closes the stream and assembles the Result (counters plus
// the full timeline, trailing partial interval included). A stream that
// declared a total but ended short fails with an error wrapping
// simerr.ErrTraceCorrupt — a truncated upload must not masquerade as a
// completed run. The machine state is preserved either way (Digest
// still describes it), and a new stream or batch run may follow.
func (d *driver) EndStream() (*Result, error) {
	if !d.streaming {
		return nil, fmt.Errorf("sim: EndStream without BeginStream")
	}
	d.streaming = false
	if d.streamTotal >= 0 && d.pos != d.streamTotal {
		return nil, fmt.Errorf("sim: stream %q ended at reference %d of a declared %d: %w",
			d.streamName, d.pos, d.streamTotal, simerr.ErrTraceCorrupt)
	}
	return d.Finish(d.streamName), nil
}
