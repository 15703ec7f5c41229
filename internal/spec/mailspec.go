package spec

import "partsvc/internal/property"

// Canonical names used by the mail service specification of Figure 2.
const (
	PropConfidentiality = "Confidentiality"
	PropTrustLevel      = "TrustLevel"
	PropUser            = "User"

	IfaceClient    = "ClientInterface"
	IfaceServer    = "ServerInterface"
	IfaceDecryptor = "DecryptorInterface"

	CompMailClient     = "MailClient"
	CompMailServer     = "MailServer"
	CompEncryptor      = "Encryptor"
	CompDecryptor      = "Decryptor"
	CompViewMailClient = "ViewMailClient"
	CompViewMailServer = "ViewMailServer"
)

// MailService returns the security-sensitive mail service specification
// of Figure 2. Differences from the paper's (incomplete) listing are
// deliberate completions:
//
//   - ViewMailClient's elided body is filled in as an object view that
//     implements ClientInterface and requires a server at least as
//     trusted as its own node (TrustLevel = Node.TrustLevel).
//   - ViewMailServer's deployment condition is read as "the node must be
//     sufficiently trusted" (Node.TrustLevel >= 2), matching the prose;
//     the figure's literal "(1,3)" range would exclude the San Diego
//     deployment the paper itself reports.
//   - MailServer carries a Node.TrustLevel >= 5 condition so that the
//     full server (which holds every user's keys) can only live at the
//     fully trusted main site, reflecting the case-study constraint that
//     the primary server is in New York.
//   - Byte/CPU behaviors are filled in with the case study's message
//     sizes so the planner's load condition (Section 3.3, condition 3)
//     is exercised.
func MailService() *Service {
	return &Service{
		Name: "mail",
		Properties: []property.Type{
			property.BoolType(PropConfidentiality),
			property.IntervalType(PropTrustLevel, 1, 5),
			property.StringType(PropUser),
		},
		Interfaces: []InterfaceDecl{
			{Name: IfaceClient, Properties: []string{PropConfidentiality, PropTrustLevel}},
			{Name: IfaceServer, Properties: []string{PropConfidentiality, PropTrustLevel}},
			// The paper's figure lists only Confidentiality on the
			// DecryptorInterface; TrustLevel is added so that the trust
			// offered by the upstream server can flow through an
			// Encryptor-Decryptor segment to the client (the planner
			// propagates effective properties interface-by-interface).
			{Name: IfaceDecryptor, Properties: []string{PropConfidentiality, PropTrustLevel}},
		},
		Components: []Component{
			{
				Name: CompMailClient,
				Implements: []InterfaceSpec{{
					Name: IfaceClient,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(false)),
						PropTrustLevel:      property.Lit(property.Int(4)),
					},
				}},
				Requires: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
						PropTrustLevel:      property.Lit(property.Int(4)),
					},
				}},
				Conditions: []property.Condition{
					property.CondEq(PropUser, property.Str("Alice")),
				},
				Behaviors: Behaviors{CPUMSPerRequest: 0.5, RequestBytes: 10240, ResponseBytes: 1024},
			},
			{
				Name: CompMailServer,
				Implements: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
						PropTrustLevel:      property.Lit(property.Int(5)),
					},
				}},
				Conditions: []property.Condition{
					property.CondGE("Node."+PropTrustLevel, 5),
				},
				Behaviors: Behaviors{CapacityRPS: 1000, CPUMSPerRequest: 1, RequestBytes: 10240, ResponseBytes: 10240},
			},
			{
				Name: CompEncryptor,
				Implements: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
					},
				}},
				Requires:  []InterfaceSpec{{Name: IfaceDecryptor}},
				Behaviors: Behaviors{CapacityRPS: 5000, CPUMSPerRequest: 0.2, RequestBytes: 10368, ResponseBytes: 10368},
			},
			{
				Name:       CompDecryptor,
				Implements: []InterfaceSpec{{Name: IfaceDecryptor}},
				Requires: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
					},
				}},
				Behaviors: Behaviors{CapacityRPS: 5000, CPUMSPerRequest: 0.2, RequestBytes: 10240, ResponseBytes: 10240},
			},
			{
				Name:       CompViewMailClient,
				Represents: CompMailClient,
				Kind:       ObjectView,
				Implements: []InterfaceSpec{{
					Name: IfaceClient,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(false)),
						PropTrustLevel:      property.Ref("Node." + PropTrustLevel),
					},
				}},
				Requires: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
						PropTrustLevel:      property.Ref("Node." + PropTrustLevel),
					},
				}},
				Behaviors: Behaviors{CPUMSPerRequest: 0.5, RequestBytes: 10240, ResponseBytes: 1024},
			},
			{
				Name:       CompViewMailServer,
				Represents: CompMailServer,
				Kind:       DataView,
				Factors: map[string]property.Expr{
					PropTrustLevel: property.Ref("Node." + PropTrustLevel),
				},
				Implements: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
						PropTrustLevel:      property.Ref("Node." + PropTrustLevel),
					},
				}},
				Requires: []InterfaceSpec{{
					Name: IfaceServer,
					Props: map[string]property.Expr{
						PropConfidentiality: property.Lit(property.Bool(true)),
						PropTrustLevel:      property.Ref("Node." + PropTrustLevel),
					},
				}},
				Conditions: []property.Condition{
					property.CondGE("Node."+PropTrustLevel, 2),
				},
				Behaviors: Behaviors{CapacityRPS: 1000, RRF: 0.2, CPUMSPerRequest: 1, RequestBytes: 10240, ResponseBytes: 10240},
			},
		},
		ModRules: property.RuleTable{
			PropConfidentiality: property.ConfidentialityRule(PropConfidentiality),
		},
	}
}
