// Package partition implements the GPU sharing mechanisms of paper Fig. 4
// plus the two prior-work policies evaluated in the concurrency case
// studies, each for any number of tasks:
//
//   - MPS (SMGroups): coarse inter-SM partitioning; L2 and memory stay
//     shared.
//   - MiG (MiGN): inter-SM partitioning plus L2 bank and memory-channel
//     partitioning — each task sees only its subset of banks.
//   - EVEN (FGN): fine-grained intra-SM partitioning (the async-compute
//     analog): every SM runs every task under a 1/n resource envelope.
//   - PriorityEven (PriorityEvenN): EVEN with lower task ids claiming
//     freed resources first.
//   - WarpedSlicer: dynamic intra-SM partitioning — parallel SMs sample
//     the IPC-vs-CTA-count curve of each kernel, then a water-filling
//     pass picks the per-SM CTA split (Xu et al., ISCA'16).
//   - TAP (TAPN): TLP-aware utility-based L2 set partitioning on top of
//     MPS (Lee & Kim, HPCA'12), with utility monitors per task.
//
// One implementation serves every task count, and at two tasks it is the
// paper's pairwise mechanism. WarpedSlicer is the exception: the paper's
// two-task policy searches every split of the SM exhaustively, while
// WarpedSlicerN water-fills greedily over n curves, and the two pick
// different splits on some pairs, so both remain.
//
// Contiguous splits (SM groups, L2 banks, TAP's initial and even set
// splits) give the remainder to the lowest task ids. At two tasks an odd
// SM or bank count therefore gives task 0 the extra unit.
//
// Tasks are small integers; by convention the concurrent platform uses
// task 0 for graphics and task 1 for compute.
package partition

import "fmt"

// TaskGraphics and TaskCompute are the conventional task ids.
const (
	TaskGraphics = 0
	TaskCompute  = 1
)

// policyName names an n-task policy: the paper's mechanism name at up to
// two tasks, and name + "x" + n beyond. The name is part of every state
// digest and checkpoint, so two-task runs keep the pairwise names.
func policyName(mechanism string, tasks int) string {
	if tasks <= 2 {
		return mechanism
	}
	return fmt.Sprintf("%sx%d", mechanism, tasks)
}
