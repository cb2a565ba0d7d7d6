package align

// Global computes a Needleman–Wunsch global alignment of a and b and
// returns the score plus match/length statistics needed for identity.
func Global(a, b []byte, sc Scoring) Result {
	var r Result
	r.Score = Walk(a, b, sc, func(i, j int) {
		r.AlignedLen++
		if i >= 0 && j >= 0 && a[i] == b[j] {
			r.Matches++
		}
	})
	return r
}

// Walk computes a Needleman–Wunsch global alignment of a and b, calls
// visit once per alignment column, from the last column to the first,
// and returns the score. A column pairs a[i] with b[j]; the gapped side
// of a gap column is -1. Ties prefer the diagonal, so identities are
// counted greedily, then a gap in b, then a gap in a.
//
// Memory: O(len(a)*len(b)) bytes for the traceback matrix plus two O(len(b))
// score rows, comfortable for read-length sequences (≤ a few kb).
func Walk(a, b []byte, sc Scoring, visit func(i, j int)) int {
	trace, score := fill(a, b, sc)
	m := len(b)
	i, j := len(a), m
	for i > 0 || j > 0 {
		switch trace[i*(m+1)+j] {
		case diag:
			i--
			j--
			visit(i, j)
		case up:
			i--
			visit(i, -1)
		default:
			j--
			visit(-1, j)
		}
	}
	return score
}

// Traceback directions of fill's matrix.
const (
	diag = byte(0)
	up   = byte(1) // gap in b (consume a)
	left = byte(2) // gap in a (consume b)
)

// fill runs the Needleman–Wunsch recurrence over a and b and returns the
// direction each cell came from, row-major over (len(a)+1)×(len(b)+1),
// and the score.
func fill(a, b []byte, sc Scoring) ([]byte, int) {
	n, m := len(a), len(b)
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
	return trace, int(prev[m])
}
