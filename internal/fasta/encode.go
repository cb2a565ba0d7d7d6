package fasta

// DNA alphabet encoding — the paper's StringGenerator UDF maps nucleotide
// characters onto small integers before k-mer extraction. We use the
// conventional 2-bit code A=0 C=1 G=2 T=3; ambiguity codes and N map to -1
// and break k-mer windows (the window containing them is skipped).

// BaseCode returns the 2-bit code for base b, or -1 for an ambiguous or
// invalid character. U is treated as T so RNA-style records also encode.
func BaseCode(b byte) int8 {
	return baseTable[b]
}

var baseTable = func() [256]int8 {
	var t [256]int8
	for i := range t {
		t[i] = -1
	}
	t['A'], t['a'] = 0, 0
	t['C'], t['c'] = 1, 1
	t['G'], t['g'] = 2, 2
	t['T'], t['t'] = 3, 3
	t['U'], t['u'] = 3, 3
	return t
}()

// CodeBase is the inverse of BaseCode for codes 0..3.
func CodeBase(c int8) byte {
	return "ACGT"[c&3]
}

// ReverseComplement returns the reverse complement of a DNA sequence in
// place-independent fashion (a new slice is returned). Ambiguous characters
// map to N.
func ReverseComplement(seq []byte) []byte {
	out := make([]byte, len(seq))
	for i, b := range seq {
		c := baseTable[b]
		j := len(seq) - 1 - i
		if c < 0 {
			out[j] = 'N'
		} else {
			out[j] = CodeBase(3 - c)
		}
	}
	return out
}

// GCContent returns the fraction of G/C bases among unambiguous bases.
// It returns 0 for sequences with no unambiguous bases.
func GCContent(seq []byte) float64 {
	gc, total := 0, 0
	for _, b := range seq {
		switch baseTable[b] {
		case 1, 2:
			gc++
			total++
		case 0, 3:
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(gc) / float64(total)
}
