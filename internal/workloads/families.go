package workloads

import (
	"fmt"

	"repro/internal/model"
)

// Family-structured repository corpus: FamilyCorpus generates a repository
// whose schemas cluster into distinct domains, each domain drawing its
// column names from its own vocabulary. That is the shape of a real schema
// repository (purchase orders next to payroll next to telemetry), and it is
// the workload the registry's signature-based candidate pruning is built
// for — an incoming schema's true matches live in its own domain cluster,
// everything else is noise a cheap token-overlap test can discard. The
// pruned 1-vs-200 benchmark (cupidbench) and the registry recall tests both
// run on this corpus.

// familyVocabs are the per-domain (canonical, variant) column vocabularies.
// Variants are realistic renamings: word reorderings, abbreviations, and
// synonyms, so within a domain the Rename perturbation produces pairs the
// linguistic matcher still relates while across domains token overlap is
// minimal.
var familyVocabs = [][][2]string{
	{ // finance
		{"AccountNumber", "AcctNo"}, {"Balance", "CurrentBalance"},
		{"InterestRate", "RateOfInterest"}, {"BranchCode", "CodeOfBranch"},
		{"TransactionDate", "DateOfTransaction"}, {"Currency", "CurrencyCode"},
		{"CreditLimit", "LimitOfCredit"}, {"IBAN", "InternationalAccountNumber"},
		{"Portfolio", "PortfolioName"}, {"MaturityDate", "DateOfMaturity"},
	},
	{ // healthcare
		{"PatientName", "NameOfPatient"}, {"Diagnosis", "DiagnosisCode"},
		{"AdmissionDate", "DateOfAdmission"}, {"Ward", "WardNumber"},
		{"Physician", "AttendingPhysician"}, {"BloodType", "BloodGroup"},
		{"Dosage", "DosageMg"}, {"Allergy", "AllergyList"},
		{"InsurancePolicy", "PolicyOfInsurance"}, {"DischargeDate", "DateOfDischarge"},
	},
	{ // logistics
		{"ShipmentWeight", "WeightOfShipment"}, {"ContainerNumber", "ContainerNo"},
		{"PortOfLoading", "LoadingPort"}, {"VesselName", "NameOfVessel"},
		{"ArrivalEstimate", "EstimatedArrival"}, {"FreightCharge", "ChargeForFreight"},
		{"PalletCount", "CountOfPallets"}, {"CustomsCode", "CodeForCustoms"},
		{"RouteSegment", "SegmentOfRoute"}, {"DeliveryWindow", "WindowForDelivery"},
	},
	{ // astronomy
		{"RightAscension", "RA"}, {"Declination", "Dec"},
		{"Magnitude", "ApparentMagnitude"}, {"Redshift", "RedshiftZ"},
		{"Telescope", "TelescopeName"}, {"ExposureSeconds", "ExposureTime"},
		{"Spectrum", "SpectrumClass"}, {"Parallax", "ParallaxMas"},
		{"GalaxyType", "TypeOfGalaxy"}, {"ObservationNight", "NightOfObservation"},
	},
	{ // human resources
		{"EmployeeName", "NameOfEmployee"}, {"Salary", "AnnualSalary"},
		{"Department", "DeptName"}, {"HireDate", "DateOfHire"},
		{"JobTitle", "TitleOfJob"}, {"ManagerName", "NameOfManager"},
		{"VacationDays", "DaysOfVacation"}, {"PayGrade", "GradeOfPay"},
		{"Certification", "CertificationList"}, {"TerminationDate", "DateOfTermination"},
	},
	{ // library
		{"BookTitle", "TitleOfBook"}, {"AuthorName", "NameOfAuthor"},
		{"ISBN", "ISBNCode"}, {"PublisherName", "NameOfPublisher"},
		{"LoanDate", "DateOfLoan"}, {"ReturnDue", "DueForReturn"},
		{"ShelfLocation", "LocationOfShelf"}, {"EditionYear", "YearOfEdition"},
		{"BorrowerCard", "CardOfBorrower"}, {"CatalogEntry", "EntryInCatalog"},
	},
	{ // telemetry
		{"SensorReading", "ReadingOfSensor"}, {"Voltage", "VoltageMv"},
		{"Temperature", "TemperatureCelsius"}, {"Humidity", "HumidityPct"},
		{"FirmwareVersion", "VersionOfFirmware"}, {"BatteryLevel", "LevelOfBattery"},
		{"SignalStrength", "StrengthOfSignal"}, {"SampleEpoch", "EpochOfSample"},
		{"GatewayAddress", "AddressOfGateway"}, {"CalibrationOffset", "OffsetOfCalibration"},
	},
	{ // travel
		{"FlightNumber", "FlightNo"}, {"DepartureGate", "GateOfDeparture"},
		{"SeatAssignment", "AssignedSeat"}, {"FareClass", "ClassOfFare"},
		{"LayoverMinutes", "MinutesOfLayover"}, {"BaggageAllowance", "AllowanceForBaggage"},
		{"BookingReference", "ReferenceOfBooking"}, {"PassportNumber", "PassportNo"},
		{"Itinerary", "ItineraryPlan"}, {"BoardingTime", "TimeOfBoarding"},
	},
	{ // sports
		{"PlayerName", "NameOfPlayer"}, {"TeamName", "NameOfTeam"},
		{"GoalsScored", "ScoredGoals"}, {"MatchAttendance", "AttendanceAtMatch"},
		{"LeaguePosition", "PositionInLeague"}, {"CoachName", "NameOfCoach"},
		{"StadiumCapacity", "CapacityOfStadium"}, {"SeasonYear", "YearOfSeason"},
		{"PenaltyCount", "CountOfPenalties"}, {"TransferFee", "FeeForTransfer"},
	},
	{ // agriculture
		{"CropYield", "YieldOfCrop"}, {"FieldHectares", "HectaresOfField"},
		{"IrrigationRate", "RateOfIrrigation"}, {"HarvestDate", "DateOfHarvest"},
		{"SoilAcidity", "AcidityOfSoil"}, {"SeedVariety", "VarietyOfSeed"},
		{"FertilizerKg", "KgOfFertilizer"}, {"LivestockCount", "CountOfLivestock"},
		{"RainfallMm", "MmOfRainfall"}, {"GreenhouseZone", "ZoneOfGreenhouse"},
	},
}

// NumFamilies is the number of distinct domain vocabularies FamilyCorpus
// can draw from.
func NumFamilies() int { return len(familyVocabs) }

// FamilyCorpusSpec parameterizes FamilyCorpus.
type FamilyCorpusSpec struct {
	// Families is the number of domain clusters (capped at NumFamilies).
	Families int
	// PerFamily is the number of schemas generated per cluster.
	PerFamily int
	// Seed offsets every schema's generator seed, so two corpora with
	// different seeds differ while equal specs are identical.
	Seed int64
	// Bridge, when positive, makes every Bridge-th member of family f
	// (members 0, Bridge, 2·Bridge, ...) also draw column names from
	// family f+1's vocabulary, so neighbouring families chain together
	// through shared tokens. Zero keeps every family to its own
	// vocabulary.
	Bridge int
}

// familySpec derives the deterministic generator spec for schema i of a
// family: sizes cycle within the family so clusters are not uniform, and
// every schema is a renamed/re-nested perturbation of its family domain.
func familySpec(fam, i int, seed int64) SyntheticSpec {
	return SyntheticSpec{
		Tables:       1 + (fam+i)%3,
		ColsPerTable: 4 + (fam+2*i)%5,
		Depth:        1 + i%2,
		Seed:         seed + int64(fam*1000+i),
		Rename:       0.4,
		Renest:       0.2,
		Vocab:        familyVocabs[fam%len(familyVocabs)],
	}
}

// FamilyCorpus generates Families×PerFamily repository schemas named
// "fam<f>-<i>", clustered by domain vocabulary (bridged to the next
// family's when spec.Bridge is set). Deterministic for a given spec.
func FamilyCorpus(spec FamilyCorpusSpec) []*model.Schema {
	if spec.Families <= 0 || spec.Families > NumFamilies() {
		spec.Families = NumFamilies()
	}
	if spec.PerFamily <= 0 {
		spec.PerFamily = 1
	}
	out := make([]*model.Schema, 0, spec.Families*spec.PerFamily)
	for f := 0; f < spec.Families; f++ {
		for i := 0; i < spec.PerFamily; i++ {
			gen := familySpec(f, i, spec.Seed)
			if spec.Bridge > 0 && i%spec.Bridge == 0 {
				next := familyVocabs[(f+1)%len(familyVocabs)]
				gen.Vocab = append(append([][2]string(nil), gen.Vocab...), next...)
			}
			s := Synthetic(gen).Target
			s.Name = fmt.Sprintf("fam%d-%d", f, i)
			out = append(out, s)
		}
	}
	return out
}

// FamilyProbe generates an incoming schema from the given family's domain —
// a fresh draw, not a member of FamilyCorpus — to rank against the corpus.
func FamilyProbe(family int, seed int64) *model.Schema {
	spec := familySpec(family, 0, seed+7777)
	spec.Tables, spec.ColsPerTable, spec.Depth = 2, 5, 2
	s := Synthetic(spec).Source
	s.Name = fmt.Sprintf("probe-fam%d", family)
	return s
}
