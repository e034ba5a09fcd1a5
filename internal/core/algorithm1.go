package core

// GateStep is the stability rule of Algorithm 1 for one flow and one
// BAI: a flow's level may rise by at most one step per BAI, and only
// after the optimiser has recommended that step for delta*(L+1)
// consecutive BAIs (L being the current 1-indexed level — higher levels
// climb more slowly, following FESTIVE's delayed-update idea). Drops are
// applied immediately: L^i = min(L^{i-1}, L^{i*}).
//
// streak is the flow's up-recommendation streak going in; GateStep
// returns it updated (0 whenever it was reset or consumed), with the
// final level and need, the streak length a pending up-switch from
// prevLevel must reach (0 when no up-step is pending). prevLevel -1
// means the flow has no assignment yet: the first recommendation is
// applied directly (the optimiser already restricts new flows to the
// lowest level). delta <= 0 disables the streak requirement (up-switches
// apply immediately), which is the ablation arm of Figure 12.
func GateStep(delta, streak, prevLevel, recommended int) (final, nextStreak, need int) {
	if prevLevel < 0 {
		return recommended, 0, 0
	}
	if recommended == prevLevel+1 {
		streak++
		// delta * (L+1) with L = prevLevel+1 (1-indexed).
		required := delta * (prevLevel + 2)
		if delta <= 0 || streak >= required {
			return prevLevel + 1, 0, 0
		}
		return prevLevel, streak, required
	}
	if recommended < prevLevel {
		return recommended, 0, 0
	}
	return prevLevel, 0, 0
}
