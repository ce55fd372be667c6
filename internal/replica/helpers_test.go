package replica

import "repro/internal/entity"

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
