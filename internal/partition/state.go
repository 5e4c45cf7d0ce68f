package partition

import (
	"encoding/json"
	"fmt"

	"crisp/internal/robust"
	"crisp/internal/sm"
)

// This file implements gpu.StateSnapshotter for the two-task
// WarpedSlicer (sampling phase, measured envelopes); TAPN and
// WarpedSlicerN serialize next to their policies in nway.go. The blobs are
// JSON with sorted slices, so a policy blob — like everything else in a
// snapshot — is byte-deterministic for a given state. The remaining
// policies (MPS, MiG, the static intra-SM splits) are stateless: their
// behavior is fully determined by name and config, so they serialize to
// nothing.

func policyErr(format string, args ...any) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: fmt.Sprintf(format, args...)}
}

// wsBlob is WarpedSlicer's serialized dynamic state.
type wsBlob struct {
	State       uint8
	SampleEnd   int64
	KernelNeed  [2]sm.Resources
	HaveKernel  [2]bool
	Limits      [2]sm.Resources
	ResampleCnt int
}

// CaptureState implements gpu.StateSnapshotter.
func (w *WarpedSlicer) CaptureState() ([]byte, error) {
	return json.Marshal(wsBlob{
		State:       uint8(w.state),
		SampleEnd:   w.sampleEnd,
		KernelNeed:  w.kernelNeed,
		HaveKernel:  w.haveKernel,
		Limits:      w.limits,
		ResampleCnt: w.resampleCnt,
	})
}

// RestoreState implements gpu.StateSnapshotter.
func (w *WarpedSlicer) RestoreState(blob []byte) error {
	var b wsBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return policyErr("WarpedSlicer state blob: %v", err)
	}
	if b.State > uint8(wsSteady) {
		return policyErr("WarpedSlicer state blob: unknown phase %d", b.State)
	}
	w.state = wsState(b.State)
	w.sampleEnd = b.SampleEnd
	w.kernelNeed = b.KernelNeed
	w.haveKernel = b.HaveKernel
	w.limits = b.Limits
	w.resampleCnt = b.ResampleCnt
	return nil
}
