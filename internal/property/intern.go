package property

// Interner numbers property sets by content: two sets with the same
// names bound to Equal values get the same ID, and IDs count up from 0
// in first-seen order. The fingerprint only buckets candidates (it does
// not tell Str("T") from Bool(true)); membership is decided by exact
// comparison. The interner keeps a private copy of each set, so a
// caller may change its own afterwards. Not safe for concurrent use.
type Interner struct {
	byFP map[string][]int32
	sets []Set
}

// Intern returns the ID of s's content, numbering it if it is new.
func (in *Interner) Intern(s Set) int32 {
	fp := s.Fingerprint()
	for _, id := range in.byFP[fp] {
		if in.sets[id].Equal(s) {
			return id
		}
	}
	if in.byFP == nil {
		in.byFP = map[string][]int32{}
	}
	id := int32(len(in.sets))
	in.sets = append(in.sets, s.Clone())
	in.byFP[fp] = append(in.byFP[fp], id)
	return id
}

// Set returns the interned copy of an ID's content. It is shared and
// read-only.
func (in *Interner) Set(id int32) Set { return in.sets[id] }

// Equal reports whether two sets bind the same names to Equal values
// (nil and empty are equal).
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for name, v := range s {
		if w, ok := o[name]; !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}
