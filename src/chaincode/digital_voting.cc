#include "src/chaincode/digital_voting.h"

#include "src/common/strings.h"
#include "src/statedb/rich_query.h"

namespace fabricsim {

DigitalVotingChaincode::DigitalVotingChaincode(int num_voters, int num_parties)
    : num_voters_(num_voters), num_parties_(num_parties) {}

std::string DigitalVotingChaincode::VoterKey(int index) {
  return "VOTER" + PadKey(static_cast<uint64_t>(index), 4);
}

std::string DigitalVotingChaincode::PartyKey(int index) {
  return "PARTY" + PadKey(static_cast<uint64_t>(index), 2);
}

std::vector<WriteItem> DigitalVotingChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  writes.push_back(WriteItem{
      "ELECTION", JsonObject({{"docType", "election"}, {"status", "open"}}),
      false});
  writes.push_back(WriteItem{
      "ELECTION_META",
      JsonObject({{"docType", "meta"},
                  {"parties", std::to_string(num_parties_)}}),
      false});
  for (int i = 0; i < num_voters_; ++i) {
    writes.push_back(WriteItem{
        VoterKey(i),
        JsonObject(
            {{"docType", "voter"}, {"voted", "no"}, {"ballots", "0"}}),
        false});
  }
  for (int i = 0; i < num_parties_; ++i) {
    writes.push_back(WriteItem{
        PartyKey(i),
        JsonObject({{"docType", "party"}, {"votes", "0"}}), false});
  }
  return writes;
}

std::vector<std::string> DigitalVotingChaincode::Functions() const {
  return {"initLedger", "vote", "closeElctn", "qryParties", "seeResults"};
}

Status DigitalVotingChaincode::Invoke(ChaincodeStub& stub,
                                      const Invocation& inv) const {
  if (inv.function == "initLedger") {
    stub.PutState("ELECTION",
                  JsonObject({{"docType", "election"}, {"status", "open"}}));
    stub.PutState("ELECTION_META",
                  JsonObject({{"docType", "meta"},
                              {"parties", std::to_string(num_parties_)}}));
    stub.PutState("VOTE_LOG",
                  JsonObject({{"docType", "log"}, {"entries", "0"}}));
    return Status::OK();
  }
  if (inv.function == "vote") {
    if (inv.args.size() < 2) {
      return Status::InvalidArgument("vote: need voter and party key");
    }
    std::optional<std::string> election = stub.GetState("ELECTION");
    if (!election.has_value() ||
        ExtractJsonField(*election, "status").value_or("") != "open") {
      return Status::FailedPrecondition("election not open");
    }
    // Scan the full voter roll and the party list; the footprint of
    // both range reads is what drives DV's phantom conflicts.
    std::vector<StateEntryRef> voters =
        stub.GetStateByRange(VoterKey(0), "VOTER~");
    std::vector<StateEntryRef> parties =
        stub.GetStateByRange(PartyKey(0), "PARTY~");
    const std::string& voter_key = inv.args[0];
    const std::string& party_key = inv.args[1];
    std::string voter_doc;
    for (const StateEntryRef& e : voters) {
      if (e.key == voter_key) {
        voter_doc = e.vv.value;
        break;
      }
    }
    if (voter_doc.empty()) return Status::NotFound("unknown " + voter_key);
    std::string party_doc;
    for (const StateEntryRef& e : parties) {
      if (e.key == party_key) {
        party_doc = e.vv.value;
        break;
      }
    }
    if (party_doc.empty()) return Status::NotFound("unknown " + party_key);
    // A repeat ballot is recorded (and flagged) rather than rejected so
    // that the write footprint stays 2xW; the study cares about the
    // concurrency footprint, and an open-loop workload would otherwise
    // exhaust 1000 voters within seconds.
    long long ballots =
        std::stoll(ExtractJsonField(voter_doc, "ballots").value_or("0")) + 1;
    stub.PutState(voter_key,
                  JsonObject({{"docType", "voter"},
                              {"voted", "yes"},
                              {"ballots", std::to_string(ballots)}}));
    long long votes =
        std::stoll(ExtractJsonField(party_doc, "votes").value_or("0")) + 1;
    stub.PutState(party_key, JsonObject({{"docType", "party"},
                                         {"votes", std::to_string(votes)}}));
    return Status::OK();
  }
  if (inv.function == "closeElctn") {
    std::optional<std::string> election = stub.GetState("ELECTION");
    if (!election.has_value()) return Status::NotFound("no election");
    stub.PutState("ELECTION", JsonObject({{"docType", "election"},
                                          {"status", "closed"}}));
    return Status::OK();
  }
  if (inv.function == "qryParties") {
    stub.GetState("ELECTION_META");
    stub.GetStateByRange(PartyKey(0), "PARTY~");
    return Status::OK();
  }
  if (inv.function == "seeResults") {
    stub.GetState("ELECTION");
    stub.GetStateByRange(PartyKey(0), "PARTY~");
    return Status::OK();
  }
  return Status::InvalidArgument("dv: unknown function " + inv.function);
}

}  // namespace fabricsim
