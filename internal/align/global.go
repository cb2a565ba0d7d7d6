package align

// Global computes a Needleman–Wunsch global alignment of a and b and
// returns the score plus match/length statistics needed for identity.
//
// Memory: O(len(a)*len(b)) bytes for the traceback matrix plus two O(len(b))
// score rows, comfortable for read-length sequences (≤ a few kb).
func Global(a, b []byte, sc Scoring) Result {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		// Pure-gap alignment: no matches, length = the non-empty side.
		return Result{Score: sc.Gap * (n + m), Matches: 0, AlignedLen: n + m}
	}

	const (
		diag = byte(0)
		up   = byte(1) // gap in b (consume a)
		left = byte(2) // gap in a (consume b)
	)
	trace := make([]byte, (n+1)*(m+1))
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)

	for j := 1; j <= m; j++ {
		prev[j] = int32(sc.Gap) * int32(j)
		trace[j] = left
	}
	for i := 1; i <= n; i++ {
		cur[0] = int32(sc.Gap) * int32(i)
		trace[i*(m+1)] = up
		ai := a[i-1]
		row := trace[i*(m+1):]
		for j := 1; j <= m; j++ {
			sub := int32(sc.Mismatch)
			if ai == b[j-1] {
				sub = int32(sc.Match)
			}
			d := prev[j-1] + sub
			u := prev[j] + int32(sc.Gap)
			l := cur[j-1] + int32(sc.Gap)
			// Prefer diagonal on ties so identities are counted greedily.
			best, dir := d, diag
			if u > best {
				best, dir = u, up
			}
			if l > best {
				best, dir = l, left
			}
			cur[j] = best
			row[j] = dir
		}
		prev, cur = cur, prev
	}
	score := int(prev[m])

	// Traceback to count matches and alignment length.
	matches, length := 0, 0
	i, j := n, m
	for i > 0 || j > 0 {
		length++
		switch trace[i*(m+1)+j] {
		case diag:
			if a[i-1] == b[j-1] {
				matches++
			}
			i--
			j--
		case up:
			i--
		default:
			j--
		}
	}
	return Result{Score: score, Matches: matches, AlignedLen: length}
}
