package kmer

import "sort"

// Set is a set of packed k-mers.
type Set map[uint64]struct{}

// Add inserts km into the set.
func (s Set) Add(km uint64) { s[km] = struct{}{} }

// Contains reports whether km is in the set.
func (s Set) Contains(km uint64) bool {
	_, ok := s[km]
	return ok
}

// Len returns the set cardinality.
func (s Set) Len() int { return len(s) }

// Sorted returns the elements in ascending order.
func (s Set) Sorted() []uint64 {
	out := make([]uint64, 0, len(s))
	for km := range s {
		out = append(out, km)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Jaccard returns the exact Jaccard similarity |A∩B| / |A∪B| of two sets.
// Two empty sets have similarity 0 by convention.
func Jaccard(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for km := range small {
		if large.Contains(km) {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// FromSlice builds a Set from a slice of packed k-mers.
func FromSlice(kms []uint64) Set {
	s := make(Set, len(kms))
	for _, km := range kms {
		s.Add(km)
	}
	return s
}
