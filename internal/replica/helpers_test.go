package replica

import (
	"repro/internal/clock"
	"repro/internal/entity"
	"repro/internal/lsdb"
)

func accountType() *entity.Type {
	return &entity.Type{
		Name: "Account",
		Fields: []entity.Field{
			{Name: "owner", Type: entity.String},
			{Name: "balance", Type: entity.Float},
		},
	}
}

func acct(id string) entity.Key { return entity.Key{Type: "Account", ID: id} }

// ID returns the standby's node id.
func (sb *Standby) ID() clock.NodeID { return sb.opts.Self }

// promote is the promotion core.PromoteStandby runs, without the kernel
// around it: Fence, then every unit's received log replayed through
// lsdb.Recover. opts is used as-is except for Backend.
func promote(sb *Standby, peers []clock.NodeID, opts lsdb.Options, types ...*entity.Type) ([]*lsdb.DB, error) {
	backends, err := sb.Fence(peers)
	if err != nil {
		return nil, err
	}
	dbs := make([]*lsdb.DB, len(backends))
	for i, backend := range backends {
		opts.Backend = backend
		if dbs[i], err = lsdb.Recover(opts, types...); err != nil {
			return nil, err
		}
	}
	return dbs, nil
}
