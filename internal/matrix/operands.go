package matrix

import "fmt"

// Operands binds the block coordinates of a schedule to concrete blocked
// matrices: one slot per MatrixID, all sharing the same tile size. It is
// the workload description of the generalized executor — a product binds
// all three slots (see Triple.Operands), a factorisation binds only the
// matrix it decomposes, and a schedule that references an unbound slot
// fails loudly at the first resolution instead of aliasing to a wrong
// matrix.
type Operands struct {
	mats [numMatrices]*Blocked
	q    int
}

// NewOperands binds the given blocked matrices, keyed by their IDs. At
// least one operand is required; duplicate IDs and mismatched tile sizes
// are rejected.
func NewOperands(ms ...*Blocked) (*Operands, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("matrix: operand binding needs at least one matrix")
	}
	o := &Operands{q: ms[0].Q}
	for _, b := range ms {
		if b == nil {
			return nil, fmt.Errorf("matrix: nil operand in binding")
		}
		if b.ID >= numMatrices {
			return nil, fmt.Errorf("matrix: operand with unknown id %v", b.ID)
		}
		if o.mats[b.ID] != nil {
			return nil, fmt.Errorf("matrix: duplicate operand %v in binding", b.ID)
		}
		if b.Q != o.q {
			return nil, fmt.Errorf("matrix: operand %v has tile size %d, binding uses %d", b.ID, b.Q, o.q)
		}
		o.mats[b.ID] = b
	}
	return o, nil
}

// Q returns the common tile size of the bound operands.
func (o *Operands) Q() int { return o.q }

// Block resolves a block coordinate to its tile view. Referencing an
// unbound operand or an out-of-range block is an error — a schedule
// touching data its workload does not declare is a bug, the executor's
// analogue of the IDEAL cache's non-resident reference.
func (o *Operands) Block(l BlockCoord) (*Dense, error) {
	if l.Matrix >= numMatrices || o.mats[l.Matrix] == nil {
		return nil, fmt.Errorf("matrix: schedule references unbound operand %v", l)
	}
	b := o.mats[l.Matrix]
	if l.Row < 0 || l.Row >= b.brows || l.Col < 0 || l.Col >= b.bcols {
		return nil, fmt.Errorf("matrix: block %v out of range %dx%d", l, b.brows, b.bcols)
	}
	return b.Block(l.Row, l.Col), nil
}
