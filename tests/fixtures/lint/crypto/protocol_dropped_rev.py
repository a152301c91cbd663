"""Batched masking protocol that drops every received mask.

Each sender collects its generated masks (Sed) and each receiver its
received ones (Rev), but the netting passes only Sed to the batched
sum: the received masks never enter with ``-``, so the pads cannot
cancel at the Reducer.
"""


class DroppedRevSummationProtocol:
    def __init__(self, network, participant_ids, reducer_id, codec, rngs):
        if len(participant_ids) < 2:
            raise ValueError("secure summation needs at least 2 participants")
        self.network = network
        self.participants = list(participant_ids)
        self.reducer_id = reducer_id
        self.codec = codec
        self._rngs = rngs

    def sum_vectors(self, values):
        n = len(values[self.participants[0]])
        sent = {p: [] for p in self.participants}
        received = {p: [] for p in self.participants}
        for sender in self.participants:
            for receiver in self.participants:
                if receiver == sender:
                    continue
                mask = self.codec.random_vector_array(n, self._rngs[sender])
                self.network.send(sender, receiver, mask, kind="mask")
                sent[sender].append(mask)
        for receiver in self.participants:
            for _ in range(len(self.participants) - 1):
                message = self.network.receive_message(receiver, kind="mask")
                received[receiver].append(message.payload)
        for p in self.participants:
            # Dropped Rev: should be sum_arrays(sent[p], received[p]).
            net_mask = self.codec.sum_arrays(sent[p], [])
            share = self.codec.add(values[p], net_mask)
            self.network.send(p, self.reducer_id, share, kind="masked-share")
